package clap

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"clap/internal/engine"
)

var (
	cascadeOnce sync.Once
	cascadeB1   Backend
	cascadeErr  error
)

// cascadeStage1 is the shared cheap-stage fixture: a lightly-trained
// Baseline #1 (the clap stage reuses pipelineBackend's fixture).
func cascadeStage1(t *testing.T) Backend {
	t.Helper()
	cascadeOnce.Do(func() {
		b, err := NewBackend(BackendBaseline1)
		if err != nil {
			cascadeErr = err
			return
		}
		cb := b.(*CLAPBackend)
		cb.Cfg.RNNEpochs, cb.Cfg.AEEpochs = 2, 3
		cascadeErr = b.Train(GenerateBenign(80, 1), func(string, ...any) {})
		cascadeB1 = b
	})
	if cascadeErr != nil {
		t.Fatalf("training cascade stage 1: %v", cascadeErr)
	}
	return cascadeB1
}

// TestCascadePipelineDeterminism is the tentpole's bit-identity contract:
// at workers {1,4}, every escalated connection's score
// through the cascade pipeline equals the pure-CLAP pipeline's score for
// that connection bit for bit, and non-escalated connections reduce the
// cheap stage's series. A Run and a stream over the same corpus leave the
// same escalation counters as per-connection routing.
func TestCascadePipelineDeterminism(t *testing.T) {
	s1 := cascadeStage1(t)
	s2 := pipelineBackend(t)
	calibration := TrafficGen(60, 5)
	probe := func() Source {
		return AttackCorpus(TrafficGen(24, 42), "GFW: Injected RST Bad TCP-Checksum/MD5-Option", 0.5, 7)
	}

	// Reference: the pure second stage over the same probe corpus.
	pureP, err := NewPipeline(WithBackend(s2))
	if err != nil {
		t.Fatal(err)
	}
	pureSum, err := pureP.Run(probe())
	if err != nil {
		t.Fatal(err)
	}

	// One calibrated cascade shared across the grid: the escalation
	// threshold is part of the model, not of the pipeline geometry.
	cascade, err := NewCascade(s1, s2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	calP, err := NewPipeline(WithBackend(cascade))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := calP.Calibrate(0.2, calibration); err != nil {
		t.Fatal(err)
	}
	esc, set := cascade.Escalation()
	if !set {
		t.Fatal("calibration did not set the escalation threshold")
	}

	for _, workers := range []int{1, 4} {
		// The subtest names carry the batch size the run uses: the
		// engine's constant.
		t.Run(fmt.Sprintf("w%d_b%d", workers, engine.DefaultBatch), func(t *testing.T) {
			p, err := NewPipeline(
				WithBackend(cascade),
				WithWorkers(workers),
			)
			if err != nil {
				t.Fatal(err)
			}
			cascade.ResetEscalationCounts()
			sum, err := p.Run(probe())
			if err != nil {
				t.Fatal(err)
			}
			runEval, runEsc := cascade.EscalationCounts()
			if len(sum.Results) != len(pureSum.Results) {
				t.Fatalf("%d results, want %d", len(sum.Results), len(pureSum.Results))
			}
			escalated := 0
			for i, r := range sum.Results {
				if s1Score := s1.ScoreConn(r.Conn); s1Score >= esc {
					escalated++
					if r.Score != pureSum.Results[i].Score {
						t.Fatalf("escalated conn %d: cascade score %v != pure clap %v",
							i, r.Score, pureSum.Results[i].Score)
					}
				} else if r.Score >= 0 {
					// Screened connections carry the cheap stage's verdict
					// as a negative margin below the escalation threshold —
					// strictly under every escalated (non-negative) clap
					// score. A non-negative score here means mis-routing.
					t.Fatalf("screened conn %d scored %v, want negative margin", i, r.Score)
				}
			}
			if escalated == 0 {
				t.Fatal("probe corpus escalated nothing; determinism not exercised")
			}
			if runEval != uint64(len(sum.Results)) || runEsc != uint64(escalated) {
				t.Fatalf("run counted %d/%d escalated, routing %d/%d",
					runEsc, runEval, escalated, len(sum.Results))
			}

			cascade.ResetEscalationCounts()
			var streamed []Result
			s := p.NewStream(nil, func(r Result) { streamed = append(streamed, r) })
			for _, r := range sum.Results {
				s.Submit(r.Conn)
			}
			s.Close()
			for i, r := range streamed {
				if r.Score != sum.Results[i].Score {
					t.Fatalf("stream conn %d: score %v != run %v", i, r.Score, sum.Results[i].Score)
				}
			}
			if ev, es := cascade.EscalationCounts(); ev != runEval || es != runEsc {
				t.Fatalf("stream counted %d/%d escalated, run %d/%d", es, ev, runEsc, runEval)
			}
		})
	}
}

// TestCascadeEndToEndFPR is the regression guard for the ThresholdAtFPR
// off-by-one composed through the cascade: calibrating both tiers from
// one corpus realizes exactly floor(target·n) false positives on that
// corpus (the old code undershot by one per tier), and a held-out benign
// set stays in a loose band around the target.
func TestCascadeEndToEndFPR(t *testing.T) {
	s1 := cascadeStage1(t)
	s2 := pipelineBackend(t)
	const target = 0.1
	calSeed, heldSeed := int64(5), int64(1234)
	calN := 60

	cascade, err := NewCascade(s1, s2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	calP, err := NewPipeline(WithBackend(cascade))
	if err != nil {
		t.Fatal(err)
	}
	cal, err := calP.Calibrate(target, TrafficGen(calN, calSeed))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(WithBackend(cascade), WithCalibration(cal))
	if err != nil {
		t.Fatal(err)
	}

	// Re-running the calibration corpus through the calibrated pipeline
	// must flag exactly the budget.
	sum, err := p.Run(TrafficGen(calN, calSeed))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Threshold <= 0 {
		t.Fatalf("calibrated run used threshold %v", sum.Threshold)
	}
	wantFlagged := int(target * float64(calN))
	if sum.Flagged != wantFlagged {
		t.Fatalf("calibration corpus flagged %d/%d, want exactly %d (floor(%.2g·n))",
			sum.Flagged, calN, wantFlagged, target)
	}
	// The escalated benign fraction respects the escalate-FPR budget too.
	if _, set := cascade.Escalation(); !set {
		t.Fatal("escalation threshold not installed")
	}
	evaluated, escalated := cascade.EscalationCounts()
	if evaluated == 0 {
		t.Fatal("escalation counters untouched")
	}
	if frac := float64(escalated) / float64(evaluated); frac > 0.3+1e-9 {
		t.Fatalf("%.2f of calibration-corpus traffic escalated, budget 0.3", frac)
	}

	// Held-out benign set: same generator family, fresh seed. The realized
	// FPR is deterministic for these seeds; band it loosely around target.
	held, err := p.Run(TrafficGen(100, heldSeed))
	if err != nil {
		t.Fatal(err)
	}
	realized := float64(held.Flagged) / float64(len(held.Results))
	if realized > 3*target {
		t.Fatalf("held-out FPR %.3f blows past target %.2f", realized, target)
	}
}

// TestCascadeCalibrationRejectsLooseFPR: a detection FPR target looser
// than the escalation budget would put the end-to-end threshold among
// the screened connections' negative margins — traffic the verdict
// stage never scored. Calibration must fail with the cause (budget vs
// target), not a bare negative-threshold validation error.
func TestCascadeCalibrationRejectsLooseFPR(t *testing.T) {
	s1 := cascadeStage1(t)
	s2 := pipelineBackend(t)
	cascade, err := NewCascade(s1, s2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(WithBackend(cascade))
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Calibrate(0.3, TrafficGen(60, 5))
	if err == nil {
		t.Fatal("calibrating at FPR 0.3 with escalation budget 0.05 should fail")
	}
	if !strings.Contains(err.Error(), "escalation budget") {
		t.Fatalf("error should name the escalation budget as the cause, got: %v", err)
	}
	// The same target inside the budget calibrates fine.
	if err := cascade.SetEscalateFPR(0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Calibrate(0.3, TrafficGen(60, 5)); err != nil {
		t.Fatalf("calibrating inside the escalation budget: %v", err)
	}
}

// TestCascadeCalibrationResetsCounters: the calibration pass scores the
// benign corpus through the cascade; its escalation counters must reflect
// served traffic only.
func TestCascadeCalibrationResetsCounters(t *testing.T) {
	s1 := cascadeStage1(t)
	s2 := pipelineBackend(t)
	cascade, err := NewCascade(s1, s2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(WithBackend(cascade))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Calibrate(0.2, TrafficGen(40, 5)); err != nil {
		t.Fatal(err)
	}
	if evaluated, _ := cascade.EscalationCounts(); evaluated != 0 {
		t.Fatalf("calibration left %d evaluations on the counters", evaluated)
	}
}

// TestWithCascadeRejectsBadFPR: a cascade for WithBackend is built by
// NewCascade, which refuses an escalation budget outside (0, 1) and a
// missing stage.
func TestWithCascadeRejectsBadFPR(t *testing.T) {
	s1 := cascadeStage1(t)
	s2 := pipelineBackend(t)
	if _, err := NewCascade(s1, s2, 0); err == nil {
		t.Fatal("NewCascade(.., 0) should fail")
	}
	if _, err := NewCascade(s1, nil, 0.1); err == nil {
		t.Fatal("NewCascade with nil stage should fail")
	}
}
