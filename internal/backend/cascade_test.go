package backend

import (
	"math"
	"strings"
	"testing"

	"clap/internal/core"
	"clap/internal/flow"
	"clap/internal/metrics"
)

// testCascade builds a cascade over untrained-but-shaped baseline1 and
// CLAP detectors — deterministic, fast, and with the two stages' score
// scales genuinely different (distinct random weights).
func testCascade(t *testing.T, conns []*flow.Connection, escalateFPR float64) *Cascade {
	t.Helper()
	b1cfg := core.Baseline1Config()
	clapCfg := core.DefaultConfig()
	s1 := &CLAP{tag: TagBaseline1, Cfg: b1cfg, Det: randomDetector(b1cfg, conns, 31)}
	s2 := &CLAP{tag: TagCLAP, Cfg: clapCfg, Det: randomDetector(clapCfg, conns, 32)}
	c, err := NewCascade(s1, s2, escalateFPR)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// serialScores scores a corpus one connection at a time.
func serialScores(b Backend, conns []*flow.Connection) []float64 {
	out := make([]float64, len(conns))
	for i, c := range conns {
		out[i] = b.ScoreConn(c)
	}
	return out
}

func TestCascadeRegistered(t *testing.T) {
	b, err := New(TagCascade)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := b.(*Cascade)
	if !ok {
		t.Fatalf("New(cascade) returned %T", b)
	}
	s1, s2 := c.Stages()
	if s1.Tag() != TagBaseline1 || s2.Tag() != TagCLAP {
		t.Fatalf("default cascade stages = %s+%s, want baseline1+clap", s1.Tag(), s2.Tag())
	}
	if c.EscalateFPR() != DefaultEscalateFPR {
		t.Fatalf("default escalate FPR = %v", c.EscalateFPR())
	}
	if c.Trained() {
		t.Error("fresh cascade reports itself trained")
	}
	if !strings.Contains(c.Describe(), "uncalibrated") {
		t.Errorf("uncalibrated cascade should say so: %q", c.Describe())
	}
}

func TestNewCascadeRejectsBadInputs(t *testing.T) {
	conns := genConns(8, 3)
	c := testCascade(t, conns, 0.1)
	s1, s2 := c.Stages()
	for _, fpr := range []float64{0, 1, -0.5, math.NaN(), math.Inf(1)} {
		if _, err := NewCascade(s1, s2, fpr); err == nil {
			t.Errorf("NewCascade with FPR %v should fail", fpr)
		}
	}
	if _, err := NewCascade(nil, s2, 0.1); err == nil {
		t.Error("nil stage 1 should fail")
	}
	if _, err := NewCascade(c, s2, 0.1); err == nil {
		t.Error("nested cascade should fail")
	}
	if _, err := c.WithStage2(c); err == nil {
		t.Error("grafting a cascade as stage 2 should fail")
	}
}

func TestNewFromSpec(t *testing.T) {
	b, err := NewFromSpec("cascade:baseline1+clap")
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := b.(*Cascade).Stages()
	if s1.Tag() != TagBaseline1 || s2.Tag() != TagCLAP {
		t.Fatalf("spec stages = %s+%s", s1.Tag(), s2.Tag())
	}
	if b, err = NewFromSpec(TagCLAP); err != nil || b.Tag() != TagCLAP {
		t.Fatalf("plain tag spec: %v, %v", b, err)
	}
	for _, bad := range []string{"cascade:", "cascade:baseline1", "cascade:+clap", "cascade:nope+clap", "cascade:clap+nope"} {
		if _, err := NewFromSpec(bad); err == nil {
			t.Errorf("spec %q should fail", bad)
		}
	}
}

// TestCascadeUncalibratedEscalatesAll: without a calibrated escalation
// threshold every connection rides the second stage, so the cascade is
// score-identical to it.
func TestCascadeUncalibratedEscalatesAll(t *testing.T) {
	conns := genConns(12, 3)
	probe := genConns(6, 41)
	c := testCascade(t, conns, 0.25)
	_, s2 := c.Stages()
	for i, conn := range probe {
		sameSeries(t, "uncalibrated series", WindowErrors(c, conn), WindowErrors(s2, conn))
		if c.ScoreConn(conn) != s2.ScoreConn(conn) {
			t.Fatalf("conn %d: uncalibrated cascade score differs from stage 2", i)
		}
	}
	evaluated, escalated := c.EscalationCounts()
	// ScoreConn + WindowErrors each count an evaluation per probe.
	if evaluated != uint64(2*len(probe)) || escalated != evaluated {
		t.Fatalf("counts = %d/%d, want all %d escalated", escalated, evaluated, 2*len(probe))
	}
}

// TestCascadeEscalationRouting pins the tiering itself: after stage
// calibration at escalate-FPR f on a benign corpus, (a) the escalated
// fraction of that corpus is floor(f·n)/n exactly, (b) escalated
// connections' series and scores are bit-identical to the pure second
// stage, and (c) non-escalated connections' series are the first stage's
// shifted down by the escalation threshold, reducing to a strictly
// negative margin score — below every escalated (non-negative) verdict.
func TestCascadeEscalationRouting(t *testing.T) {
	benign := genConns(40, 3)
	c := testCascade(t, benign, 0.2)
	if err := c.CalibrateStages(benign, serialScores); err != nil {
		t.Fatal(err)
	}
	s1, s2 := c.Stages()
	esc, set := c.Escalation()
	if !set {
		t.Fatal("calibration did not install an escalation threshold")
	}
	wantEscalated := int(0.2 * float64(len(benign))) // floor semantics
	gotEscalated := 0
	for _, conn := range benign {
		e1 := WindowErrors(s1, conn)
		score1, _ := s1.Summarize(e1)
		if score1 >= esc {
			gotEscalated++
			sameSeries(t, "escalated series", WindowErrors(c, conn), WindowErrors(s2, conn))
			if c.ScoreConn(conn) != s2.ScoreConn(conn) {
				t.Fatal("escalated connection's score differs from pure stage 2")
			}
		} else {
			shifted := append([]float64(nil), e1...)
			for i := range shifted {
				shifted[i] -= esc
			}
			sameSeries(t, "screened series", WindowErrors(c, conn), shifted)
			if got := c.ScoreConn(conn); len(e1) > 0 && got >= 0 {
				t.Fatalf("screened connection scored %v, want negative margin below the escalation threshold", got)
			}
		}
	}
	if gotEscalated != wantEscalated {
		t.Fatalf("%d/%d benign escalated, want exactly %d (floor(0.2·n))",
			gotEscalated, len(benign), wantEscalated)
	}
	evaluated, escalated := c.EscalationCounts()
	if evaluated == 0 || escalated > evaluated {
		t.Fatalf("implausible counters %d/%d", escalated, evaluated)
	}
	c.ResetEscalationCounts()
	if ev, es := c.EscalationCounts(); ev != 0 || es != 0 {
		t.Fatalf("reset left counters at %d/%d", es, ev)
	}
}

// TestCascadeSummarizeMatchesScoreConn pins the Backend contract on the
// composite, both calibrated and not.
func TestCascadeSummarizeMatchesScoreConn(t *testing.T) {
	benign := genConns(20, 3)
	probe := genConns(8, 43)
	c := testCascade(t, benign, 0.25)
	check := func(label string) {
		t.Helper()
		for i, conn := range probe {
			score, _ := c.Summarize(WindowErrors(c, conn))
			if got := c.ScoreConn(conn); got != score {
				t.Fatalf("%s: conn %d ScoreConn %v != Summarize %v", label, i, got, score)
			}
		}
		if score, peak := c.Summarize(nil); score != 0 || peak != -1 {
			t.Fatalf("%s: empty series summarized to (%v, %d)", label, score, peak)
		}
	}
	check("uncalibrated")
	if err := c.CalibrateStages(benign, serialScores); err != nil {
		t.Fatal(err)
	}
	check("calibrated")
}

// TestCascadeRoundTrip: the tagged Save/Load round-trip preserves both
// stages (with their tags), the escalation threshold, the escalate-FPR,
// and bit-identical scoring.
func TestCascadeRoundTrip(t *testing.T) {
	benign := genConns(24, 3)
	probe := genConns(6, 47)
	c := testCascade(t, benign, 0.15)
	if err := c.CalibrateStages(benign, serialScores); err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, c).(*Cascade)
	g1, g2 := got.Stages()
	if g1.Tag() != TagBaseline1 || g2.Tag() != TagCLAP {
		t.Fatalf("round-trip stages = %s+%s", g1.Tag(), g2.Tag())
	}
	if got.EscalateFPR() != c.EscalateFPR() {
		t.Fatalf("escalate FPR drifted: %v != %v", got.EscalateFPR(), c.EscalateFPR())
	}
	wantEsc, wantSet := c.Escalation()
	gotEsc, gotSet := got.Escalation()
	if gotEsc != wantEsc || gotSet != wantSet {
		t.Fatalf("escalation drifted: (%v,%v) != (%v,%v)", gotEsc, gotSet, wantEsc, wantSet)
	}
	for _, conn := range probe {
		sameSeries(t, "round-trip series", WindowErrors(got, conn), WindowErrors(c, conn))
		if got.ScoreConn(conn) != c.ScoreConn(conn) {
			t.Fatal("round-trip changed a score")
		}
	}
	// An uncalibrated cascade round-trips as uncalibrated.
	u := testCascade(t, benign, 0.15)
	if _, set := roundTrip(t, u).(*Cascade).Escalation(); set {
		t.Fatal("uncalibrated cascade came back calibrated")
	}
}

func TestCascadeSaveRejectsUntrained(t *testing.T) {
	b, err := New(TagCascade)
	if err != nil {
		t.Fatal(err)
	}
	var sink strings.Builder
	if err := Save(&sink, b); err == nil {
		t.Fatal("saving untrained cascade should fail")
	}
}

// TestCascadeTrainNilLogf trains a cascade the way a library caller with no
// progress sink does. Train used to call the nil Logf itself and panic;
// the stages below it now get a no-op.
func TestCascadeTrainNilLogf(t *testing.T) {
	b1cfg, clapCfg := core.Baseline1Config(), core.DefaultConfig()
	b1cfg.RNNEpochs, b1cfg.AEEpochs = 1, 1
	clapCfg.RNNEpochs, clapCfg.AEEpochs = 1, 1
	c, err := NewCascade(&CLAP{tag: TagBaseline1, Cfg: b1cfg}, &CLAP{tag: TagCLAP, Cfg: clapCfg}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Train(genConns(12, 5), nil); err != nil {
		t.Fatalf("%s: %v", c.Describe(), err)
	}
	if !c.Trained() {
		t.Fatalf("%s: not trained after Train(nil)", c.Describe())
	}
}

// TestCascadeWithStage2 pins the hot-reload graft: the replacement keeps
// the first stage, escalation threshold, and the shared counters, while
// escalated verdicts switch to the incoming model.
func TestCascadeWithStage2(t *testing.T) {
	benign := genConns(24, 3)
	c := testCascade(t, benign, 0.2)
	if err := c.CalibrateStages(benign, serialScores); err != nil {
		t.Fatal(err)
	}
	c.ScoreConn(benign[0]) // tick the counters
	evBefore, _ := c.EscalationCounts()
	clapCfg := core.DefaultConfig()
	fresh := &CLAP{tag: TagCLAP, Cfg: clapCfg, Det: randomDetector(clapCfg, benign, 99)}
	nb, err := c.WithStage2(fresh)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := c.Stages()
	n1, n2 := nb.Stages()
	if n1 != s1 || n2 != Backend(fresh) {
		t.Fatal("graft did not keep stage 1 / install stage 2")
	}
	oldEsc, _ := c.Escalation()
	newEsc, set := nb.Escalation()
	if !set || newEsc != oldEsc {
		t.Fatal("graft dropped the escalation threshold")
	}
	if ev, _ := nb.EscalationCounts(); ev != evBefore {
		t.Fatalf("graft reset shared counters: %d != %d", ev, evBefore)
	}
	nb.ScoreConn(benign[1])
	evOld, _ := c.EscalationCounts()
	evNew, _ := nb.EscalationCounts()
	if evOld != evNew {
		t.Fatal("counters not shared across the graft")
	}
}

// TestCascadeStageCalibrationBudget cross-checks the ThresholdAtFPR fix
// through the cascade: the calibrated escalation threshold realizes the
// floor(f·n) budget exactly on the calibration corpus for several f.
func TestCascadeStageCalibrationBudget(t *testing.T) {
	benign := genConns(30, 3)
	for _, f := range []float64{0.05, 0.1, 0.5} {
		c := testCascade(t, benign, f)
		if err := c.CalibrateStages(benign, serialScores); err != nil {
			t.Fatal(err)
		}
		s1, _ := c.Stages()
		esc, _ := c.Escalation()
		scores := serialScores(s1, benign)
		if got := realizedCount(scores, esc); got != int(f*float64(len(benign))) {
			t.Fatalf("f=%v: %d escalate, want %d", f, got, int(f*float64(len(benign))))
		}
	}
	// The full metrics-level contract is pinned in internal/metrics; this
	// is the composition-level guard.
	if th := metrics.ThresholdAtFPR([]float64{1, 2, 3, 4}, 0.5); realizedCount([]float64{1, 2, 3, 4}, th) != 2 {
		t.Fatal("metrics.ThresholdAtFPR budget regressed")
	}
}

func realizedCount(scores []float64, th float64) int {
	n := 0
	for _, s := range scores {
		if s >= th {
			n++
		}
	}
	return n
}
