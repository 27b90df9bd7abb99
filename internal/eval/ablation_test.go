package eval

import (
	"math"
	"strings"
	"testing"

	"clap/internal/core"
)

func TestAggregateReductions(t *testing.T) {
	errs := []float64{0.1, 0.5, 0.2, 0.4}
	det := &core.Detector{Cfg: core.Config{ScoreWindow: 3}}
	if got := aggregate(errs, AggMax, det); got != 0.5 {
		t.Errorf("max = %g", got)
	}
	if got := aggregate(errs, AggMean, det); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("mean = %g", got)
	}
	// Localize-and-estimate with window 3 around the peak at index 1:
	// mean(0.1, 0.5, 0.2).
	if got := aggregate(errs, AggLocalize, det); math.Abs(got-(0.1+0.5+0.2)/3) > 1e-12 {
		t.Errorf("localize = %g", got)
	}
	if got := aggregate(nil, AggMax, det); got != 0 {
		t.Errorf("empty aggregate = %g", got)
	}
}

func TestAblationStrategiesExist(t *testing.T) {
	s := suite(t)
	for _, name := range AblationStrategies {
		if len(s.Data.Adv[name]) == 0 {
			t.Errorf("ablation strategy %q has no adversarial corpus", name)
		}
	}
}

func TestEvaluateScoreMetricOrdering(t *testing.T) {
	s := suite(t)
	names := AblationStrategies[:4]
	loc := s.EvaluateScoreMetric(AggLocalize, names)
	max := s.EvaluateScoreMetric(AggMax, names)
	mean := s.EvaluateScoreMetric(AggMean, names)
	for label, v := range map[string]float64{"localize": loc, "max": max, "mean": mean} {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Errorf("%s AUC = %g", label, v)
		}
	}
}

func TestTrainVariantAndEvaluateDetector(t *testing.T) {
	s := suite(t)
	det, err := s.TrainVariant(func(c *core.Config) {
		c.StackLength = 1
		c.AEEpochs = 2
	}, nil)
	if err != nil {
		t.Fatalf("TrainVariant: %v", err)
	}
	if det.Cfg.StackLength != 1 {
		t.Error("variant config not applied")
	}
	auc := s.EvaluateDetector(det, AblationStrategies[:2])
	if auc < 0 || auc > 1 {
		t.Errorf("variant AUC = %g", auc)
	}
	if got := s.EvaluateDetector(det, nil); got != 0 {
		t.Errorf("no-strategy evaluation = %g, want 0", got)
	}
}

func TestAblationReportFormat(t *testing.T) {
	out := AblationReport("no-stacking", 0.9, 0.8)
	if !strings.Contains(out, "no-stacking") || !strings.Contains(out, "-0.100") {
		t.Errorf("report malformed: %s", out)
	}
}
