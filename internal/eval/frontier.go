package eval

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"clap/internal/attacks"
	"clap/internal/backend"
	"clap/internal/engine"
	"clap/internal/flow"
	"clap/internal/metrics"
)

// DefaultFrontierFPRs is the canonical escalation sweep: from a screen
// that escalates almost nothing, through the serving default, up to one
// that forwards half of benign traffic — the budget where the fast
// profile reaches accuracy parity (≤2% AUC loss) with pure CLAP.
var DefaultFrontierFPRs = []float64{0.01, 0.05, 0.10, 0.25, 0.50}

// FrontierPoint is one operating point of the tiered baseline1→CLAP
// cascade: the escalation budget, the stage-1 threshold realizing it,
// detection accuracy with that routing, and measured one-worker batched
// throughput on a benign-heavy corpus.
type FrontierPoint struct {
	EscalateFPR float64 // target benign escalation fraction
	Threshold   float64 // stage-1 escalation threshold realizing it

	// AUC is the mean detection AUC across every attack strategy with the
	// cascade's routing applied (paired negatives, like EvaluateStrategy).
	AUC float64

	// EscalatedFraction is the realized escalation rate over the
	// benign-heavy throughput corpus.
	EscalatedFraction float64

	Throughput Throughput
}

// Frontier is the full accuracy/throughput sweep plus the pure-CLAP
// reference the cascade is traded against.
type Frontier struct {
	Points []FrontierPoint

	// PureAUC and Pure are the escalate-everything reference: stage 2
	// scores every connection.
	PureAUC float64
	Pure    Throughput

	// Benign and Attack size the throughput corpus.
	Benign, Attack int
}

// frontierCorpus assembles the benign-heavy throughput corpus: the full
// benign test split plus ~5% adversarial connections drawn evenly from
// the strategy corpora in name order (deterministic).
func (s *Suite) frontierCorpus() (conns []*flow.Connection, benign, attack int) {
	conns = append(conns, s.Data.TestBenign...)
	benign = len(conns)
	want := benign / 19 // ≈5% of the final mix
	if want == 0 {
		want = 1
	}
	names := make([]string, 0, len(s.Data.Adv))
	for name := range s.Data.Adv {
		names = append(names, name)
	}
	sort.Strings(names)
	for i := 0; attack < want; i++ {
		added := false
		for _, name := range names {
			if cs := s.Data.Adv[name]; i < len(cs) && attack < want {
				conns = append(conns, cs[i])
				attack++
				added = true
			}
		}
		if !added {
			break
		}
	}
	return conns, benign, attack
}

// CascadeFrontier sweeps the escalation budget of a baseline1→CLAP
// cascade and reports the accuracy/throughput frontier of the tiered
// deployment. Detection AUC per point composes the suite's cached stage
// scores through the routing rule — order-equivalent to scoring through
// backend.Cascade (escalated scores bit-identical to pure CLAP, pinned
// by test; screened margins agree up to float rounding of the shift) —
// and throughput per point is a measured one-worker pass of the real
// cascade through the engine's batcher over the benign-heavy corpus. A nil fprs sweeps
// DefaultFrontierFPRs.
func (s *Suite) CascadeFrontier(fprs []float64) (*Frontier, error) {
	s1, ok1 := s.Backends[backend.TagBaseline1]
	s2, ok2 := s.Backends[backend.TagCLAP]
	if !ok1 || !ok2 {
		return nil, errors.New("eval: frontier needs the baseline1 and clap backends in the suite")
	}
	if len(fprs) == 0 {
		fprs = DefaultFrontierFPRs
	}
	eng := s.engineOrDefault()

	// The escalation threshold calibrates on the benign test split's
	// stage-1 scores — held out from training, like a deployment would.
	benignS1 := eng.ScoresBatched(s1, s.Data.TestBenign)

	// Per-strategy stage scores, computed once and composed per point.
	type stratScores struct {
		name           string
		advS1, advS2   []float64
		pairS1, pairS2 []float64
	}
	var strat []stratScores
	for _, st := range attacks.All() {
		conns := s.Data.Adv[st.Name]
		srcs := s.Data.AdvSrc[st.Name]
		if len(conns) == 0 {
			continue
		}
		ss := stratScores{
			name:  st.Name,
			advS1: eng.ScoresBatched(s1, conns),
			advS2: eng.ScoresBatched(s2, conns),
		}
		for _, bi := range srcs {
			ss.pairS1 = append(ss.pairS1, s.Base[backend.TagBaseline1][bi])
			ss.pairS2 = append(ss.pairS2, s.Base[backend.TagCLAP][bi])
		}
		strat = append(strat, ss)
	}
	if len(strat) == 0 {
		return nil, errors.New("eval: frontier needs a non-empty adversarial corpus")
	}

	// route applies the cascade's decision rule to cached stage scores:
	// below the escalation threshold the screen's verdict stands as its
	// negative margin below the threshold (mirroring Cascade.Route's
	// shift, so every screened connection ranks under every escalated
	// one), otherwise the expensive stage's score — bit-identical to pure
	// CLAP — is the verdict.
	route := func(th float64, sc1, sc2 []float64) []float64 {
		out := make([]float64, len(sc1))
		for i := range sc1 {
			if sc1[i] < th {
				out[i] = sc1[i] - th
			} else {
				out[i] = sc2[i]
			}
		}
		return out
	}
	meanAUC := func(th float64) float64 {
		var sum float64
		for _, ss := range strat {
			sum += metrics.AUC(route(th, ss.pairS1, ss.pairS2), route(th, ss.advS1, ss.advS2))
		}
		return sum / float64(len(strat))
	}

	corpus, nBenign, nAttack := s.frontierCorpus()
	one := engine.New(engine.Options{Workers: 1})
	f := &Frontier{
		PureAUC: meanAUC(math.Inf(-1)), // escalate everything: pure stage 2
		Pure:    MeasureThroughput(one, s2, corpus),
		Benign:  nBenign,
		Attack:  nAttack,
	}
	cascade, err := backend.NewCascade(s1, s2, fprs[0])
	if err != nil {
		return nil, err
	}
	for _, fpr := range fprs {
		th := metrics.ThresholdAtFPR(benignS1, fpr)
		if err := cascade.SetEscalateFPR(fpr); err != nil {
			return nil, err
		}
		if err := cascade.SetEscalation(th); err != nil {
			return nil, err
		}
		cascade.ResetEscalationCounts()
		pt := FrontierPoint{
			EscalateFPR: fpr,
			Threshold:   th,
			AUC:         meanAUC(th),
			Throughput:  MeasureThroughput(one, cascade, corpus),
		}
		if evaluated, escalated := cascade.EscalationCounts(); evaluated > 0 {
			pt.EscalatedFraction = float64(escalated) / float64(evaluated)
		}
		f.Points = append(f.Points, pt)
	}
	return f, nil
}

// TableFrontier renders the cascade accuracy/throughput frontier (the
// tiered-deployment extension of Table 3).
func TableFrontier(f *Frontier) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 9: cascade escalation frontier — baseline1 screen, CLAP verdicts (%d benign + %d attack connections)\n",
		f.Benign, f.Attack)
	fmt.Fprintf(&b, "%-12s %-12s %-11s %-8s %-8s %-14s %-10s\n",
		"Esc-FPR", "Threshold", "Escalated", "AUC", "ΔAUC", "Pkts/s", "Speedup")
	for _, p := range f.Points {
		speedup := p.Throughput.PacketsPerSecond() / f.Pure.PacketsPerSecond()
		fmt.Fprintf(&b, "%-12.3f %-12.6f %-11.3f %-8.3f %-+8.3f %-14.1f %-10.2fx\n",
			p.EscalateFPR, p.Threshold, p.EscalatedFraction, p.AUC, p.AUC-f.PureAUC,
			p.Throughput.PacketsPerSecond(), speedup)
	}
	fmt.Fprintf(&b, "%-12s %-12s %-11.3f %-8.3f %-8s %-14.1f %-10s\n",
		"pure clap", "-", 1.0, f.PureAUC, "-", f.Pure.PacketsPerSecond(), "1.00x")
	return b.String()
}
