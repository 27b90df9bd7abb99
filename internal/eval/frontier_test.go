package eval

import (
	"math"
	"strings"
	"testing"

	"clap/internal/attacks"
	"clap/internal/backend"
	"clap/internal/flow"
	"clap/internal/metrics"
)

// TestCascadeFrontier pins the tiered deployment's contract on the tiny
// profile: the margin-composed routing makes accuracy monotone in the
// escalation budget (the raw mixed-scale composition was not), more
// escalation strictly buys accuracy across the sweep, the default budget
// sends at most a fifth of pure CLAP's packets to CLAP and keeps ≥5×
// pure-CLAP batched throughput, and the composed scores the
// sweep is built from match scoring through backend.Cascade bit for bit.
// The accuracy numbers themselves scale with the profile — the tiny
// 2-epoch screen bounds AUC loss at ~0.22; the fast profile's trained
// screen measures 0.106 at the default budget, reaching ≤0.02 at budget
// 0.5 (recorded in CHANGES.md) — so this test pins a loose regression
// ceiling, not the fast-profile numbers.
func TestCascadeFrontier(t *testing.T) {
	s := suite(t)
	f, err := s.CascadeFrontier(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Points) != len(DefaultFrontierFPRs) {
		t.Fatalf("%d frontier points, want %d", len(f.Points), len(DefaultFrontierFPRs))
	}
	if f.PureAUC <= 0.5 || f.PureAUC > 1 {
		t.Fatalf("pure-CLAP reference AUC = %v", f.PureAUC)
	}

	var def *FrontierPoint
	for i := range f.Points {
		p := &f.Points[i]
		if p.AUC < 0 || p.AUC > 1 || math.IsNaN(p.AUC) {
			t.Fatalf("point %+v: AUC out of range", p)
		}
		if p.Throughput.Packets == 0 || p.Throughput.PacketsPerSecond() <= 0 {
			t.Fatalf("point %+v: no throughput measured", p)
		}
		// The realized escalation rate tracks the budget loosely: the
		// corpus is benign-heavy but 5% of it is attacks meant to escalate.
		if p.EscalatedFraction < 0 || p.EscalatedFraction > 1 {
			t.Fatalf("point %+v: bad escalated fraction", p)
		}
		// Margin routing makes accuracy monotone in the budget: screened
		// connections all rank below escalated ones, so widening the
		// escalated set can only move attacks up. The raw mixed-scale
		// composition violated this badly (AUC dipped as escalation rose).
		if i > 0 && p.AUC < f.Points[i-1].AUC-1e-9 {
			t.Fatalf("AUC not monotone in escalation budget: %.4f @ %.2f < %.4f @ %.2f",
				p.AUC, p.EscalateFPR, f.Points[i-1].AUC, f.Points[i-1].EscalateFPR)
		}
		if p.EscalateFPR == backend.DefaultEscalateFPR {
			def = p
		}
	}
	if def == nil {
		t.Fatalf("default escalate-FPR %v missing from the sweep", backend.DefaultEscalateFPR)
	}
	// Escalation strictly buys accuracy across the sweep, and the gap to
	// pure CLAP at the default budget stays under the tiny-profile
	// regression ceiling (measured 0.2239 with the 2-epoch smoke screen;
	// the trained fast-profile screen measures 0.106 — see CHANGES.md).
	if last := f.Points[len(f.Points)-1]; last.AUC <= f.Points[0].AUC {
		t.Fatalf("widening the budget bought no accuracy: %.4f @ %.2f vs %.4f @ %.2f",
			last.AUC, last.EscalateFPR, f.Points[0].AUC, f.Points[0].EscalateFPR)
	}
	if loss := f.PureAUC - def.AUC; loss > 0.25 {
		t.Fatalf("AUC loss at default escalation budget = %.4f, ceiling 0.25 (cascade %.4f, pure %.4f)",
			loss, def.AUC, f.PureAUC)
	}
	// The throughput half of the contract, as work: at the default budget
	// CLAP — the expensive stage — scores at most a fifth of the packets
	// pure CLAP scores on the benign-heavy corpus. This holds in every
	// build, the race detector's included, and is the work the wall-clock
	// ratio below measures. Each point's escalated set is rebuilt from
	// stage-1 scores: it must match what the measured pass routed, and a
	// wider budget may only escalate more.
	corpus, _, _ := s.frontierCorpus()
	corpusS1 := s.engineOrDefault().ScoresBatched(s.Backends[backend.TagBaseline1], corpus)
	allPkts, prevPkts := 0, 0
	for _, c := range corpus {
		allPkts += c.Len()
	}
	for _, p := range f.Points {
		escalated, escalatedPkts := 0, 0
		for i, c := range corpus {
			if corpusS1[i] >= p.Threshold {
				escalated++
				escalatedPkts += c.Len()
			}
		}
		if got := float64(escalated) / float64(len(corpus)); got != p.EscalatedFraction {
			t.Fatalf("budget %.2f: the measured pass escalated %v of the corpus, stage-1 scores escalate %v",
				p.EscalateFPR, p.EscalatedFraction, got)
		}
		if escalatedPkts < prevPkts {
			t.Fatalf("budget %.2f escalates %d packets, fewer than a narrower budget's %d", p.EscalateFPR, escalatedPkts, prevPkts)
		}
		prevPkts = escalatedPkts
		if p.EscalateFPR == backend.DefaultEscalateFPR && 5*escalatedPkts > allPkts {
			t.Fatalf("default budget escalates %d of %d packets to CLAP, want at most a fifth", escalatedPkts, allPkts)
		}
	}
	if prevPkts == 0 {
		t.Fatalf("no budget in the sweep escalated a packet")
	}
	// The same contract on the wall clock: the cascade screens at ≥5× pure
	// CLAP's rate, both on the batcher at one worker (measured 17.5× tiny,
	// 11.2× fast). The race detector instruments the Go screen but not
	// CLAP's assembly kernels, so under -race the clock no longer measures
	// the work (it reads about 5×); the packet count above stands in.
	if speedup := def.Throughput.PacketsPerSecond() / f.Pure.PacketsPerSecond(); speedup < 5 && !raceEnabled {
		t.Fatalf("default-budget speedup %.2fx, want >= 5x", speedup)
	}
	// The composed routing must equal real cascade scoring: rebuild the
	// cascade at the default point and compare scores over the benign
	// split and one strategy corpus.
	cascade, err := backend.NewCascade(
		s.Backends[backend.TagBaseline1], s.Backends[backend.TagCLAP], def.EscalateFPR)
	if err != nil {
		t.Fatal(err)
	}
	if err := cascade.SetEscalation(def.Threshold); err != nil {
		t.Fatal(err)
	}
	s1 := s.Backends[backend.TagBaseline1]
	s2 := s.Backends[backend.TagCLAP]
	probe := append([]*flow.Connection(nil), s.Data.TestBenign[:8]...)
	for _, st := range attacks.All() {
		if cs := s.Data.Adv[st.Name]; len(cs) > 0 {
			probe = append(probe, cs[:min(4, len(cs))]...)
			break
		}
	}
	for i, c := range probe {
		e1 := backend.WindowErrors(s1, c)
		score1, _ := s1.Summarize(e1)
		want := s2.ScoreConn(c)
		if score1 < def.Threshold {
			for j := range e1 {
				e1[j] -= def.Threshold
			}
			want, _ = cascade.Summarize(e1)
			if len(e1) > 0 && want >= 0 {
				t.Fatalf("probe %d: screened margin %v not negative", i, want)
			}
		}
		if got := cascade.ScoreConn(c); got != want {
			t.Fatalf("probe %d: cascade score %v != composed %v", i, got, want)
		}
	}

	// Threshold derivation matches the fixed ThresholdAtFPR on the same
	// stage-1 benign scores.
	benignS1 := s.engineOrDefault().ScoresBatched(s1, s.Data.TestBenign)
	if want := metrics.ThresholdAtFPR(benignS1, def.EscalateFPR); def.Threshold != want {
		t.Fatalf("frontier threshold %v != ThresholdAtFPR %v", def.Threshold, want)
	}

	// Renderer smoke: every point present, reference row last.
	table := TableFrontier(f)
	if !strings.HasPrefix(table, "Table 9:") || !strings.Contains(table, "pure clap") {
		t.Fatalf("frontier table malformed:\n%s", table)
	}
	if strings.Count(table, "\n") != len(f.Points)+3 {
		t.Fatalf("frontier table rows:\n%s", table)
	}
}
