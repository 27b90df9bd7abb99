package eval

import (
	"fmt"
	"strings"

	"clap/internal/core"
	"clap/internal/flow"
	"clap/internal/metrics"
)

// Ablations quantify the design choices DESIGN.md calls out: gate-weight
// fusion, profile stacking, amplification features, and the
// localize-and-estimate score metric (§3.3). Each ablation trains a variant
// detector under the same data and budget and reports mean AUC over a
// representative strategy mix.

// AblationStrategies is the mixed inter/intra subset ablations evaluate on
// (full-corpus ablations would multiply training time without changing the
// ordering).
var AblationStrategies = []string{
	// Inter-packet violations.
	"GFW: Injected RST Bad TCP-Checksum/MD5-Option",
	"Snort: Injected RST Pure",
	"Zeek: Injected FIN Pure",
	"Snort: SYN Multiple (SYN)",
	"RST w/ Low TTL #1 (Min)",
	"Injected RST-ACK / Low TTL",
	// Intra-packet violations.
	"Bad TCP Checksum (Min)",
	"Invalid IP Version (Min)",
	"Invalid Data-Offset (Max)",
	"Snort: Data Packet (ACK) w/ Urgent Pointer",
	"Invalid Flags #2 / Bad TCP MD5-Option",
	"Bad Payload Length / Bad TCP Checksum",
}

// TrainVariant trains a detector whose config is derived from the suite's
// CLAP config by mutate.
func (s *Suite) TrainVariant(mutate func(*core.Config), logf core.Logf) (*core.Detector, error) {
	cfg := s.Opt.CLAP
	mutate(&cfg)
	return core.Train(s.Data.Train, cfg, logf)
}

// neededBases collects, in first-use order, the unique carrier-pool indices
// the named strategies reference — the set of base connections whose scores
// a paired evaluation needs.
func (s *Suite) neededBases(names []string) []int {
	seen := map[int]bool{}
	var need []int
	for _, name := range names {
		for _, bi := range s.Data.AdvSrc[name] {
			if !seen[bi] {
				seen[bi] = true
				need = append(need, bi)
			}
		}
	}
	return need
}

// baseScoreMap scores the carrier-pool connections the named strategies
// reference, through the engine, returning carrier index -> score.
func (s *Suite) baseScoreMap(names []string, score func(*flow.Connection) float64) map[int]float64 {
	need := s.neededBases(names)
	baseConns := make([]*flow.Connection, len(need))
	for i, bi := range need {
		baseConns[i] = s.Data.AdvBase[bi]
	}
	baseVals := s.engineOrDefault().MapFloat(baseConns, score)
	baseScores := make(map[int]float64, len(need))
	for i, bi := range need {
		baseScores[bi] = baseVals[i]
	}
	return baseScores
}

// EvaluateDetector computes the mean paired AUC of an arbitrary detector
// over the named strategies. Carrier and adversarial corpora are scored
// through the parallel engine; results are independent of the worker count.
func (s *Suite) EvaluateDetector(det *core.Detector, names []string) float64 {
	eng := s.engineOrDefault()
	score := func(c *flow.Connection) float64 { return det.Score(c).Adversarial }
	baseScores := s.baseScoreMap(names, score)

	var sum float64
	var n int
	for _, name := range names {
		conns := s.Data.Adv[name]
		srcs := s.Data.AdvSrc[name]
		if len(conns) == 0 {
			continue
		}
		adv := eng.MapFloat(conns, score)
		ben := make([]float64, len(conns))
		for i := range conns {
			ben[i] = baseScores[srcs[i]]
		}
		sum += metrics.AUC(ben, adv)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ScoreAggregation is an alternative stage-(d) summarisation for the
// score-metric ablation.
type ScoreAggregation string

// The compared aggregations (§3.3(d) discusses this spectrum).
const (
	AggLocalize ScoreAggregation = "localize-and-estimate" // the paper's choice
	AggMax      ScoreAggregation = "max"
	AggMean     ScoreAggregation = "mean"
)

// aggregate reduces window errors to a connection score.
func aggregate(errs []float64, agg ScoreAggregation, window int) float64 {
	if len(errs) == 0 {
		return 0
	}
	switch agg {
	case AggMax:
		max := errs[0]
		for _, e := range errs {
			if e > max {
				max = e
			}
		}
		return max
	case AggMean:
		var sum float64
		for _, e := range errs {
			sum += e
		}
		return sum / float64(len(errs))
	default:
		peak := 0
		for i, e := range errs {
			if e > errs[peak] {
				peak = i
			}
		}
		lo, hi := peak-window/2, peak+window/2+1
		if lo < 0 {
			lo = 0
		}
		if hi > len(errs) {
			hi = len(errs)
		}
		var sum float64
		for _, e := range errs[lo:hi] {
			sum += e
		}
		return sum / float64(hi-lo)
	}
}

// EvaluateScoreMetric computes the mean paired AUC of the suite's CLAP
// detector under an alternative score aggregation, with window errors
// computed through the parallel engine.
func (s *Suite) EvaluateScoreMetric(agg ScoreAggregation, names []string) float64 {
	eng := s.engineOrDefault()
	w := s.Opt.CLAP.ScoreWindow
	scoreAgg := func(c *flow.Connection) float64 {
		return aggregate(s.CLAP.WindowErrors(c), agg, w)
	}
	baseScores := s.baseScoreMap(names, scoreAgg)

	var sum float64
	var n int
	for _, name := range names {
		conns := s.Data.Adv[name]
		srcs := s.Data.AdvSrc[name]
		if len(conns) == 0 {
			continue
		}
		adv := eng.MapFloat(conns, scoreAgg)
		ben := make([]float64, len(conns))
		for i := range conns {
			ben[i] = baseScores[srcs[i]]
		}
		sum += metrics.AUC(ben, adv)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// AblationReport renders a comparison line.
func AblationReport(label string, baseline, variant float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation %-28s baseline(CLAP)=%.3f variant=%.3f Δ=%+.3f\n",
		label, baseline, variant, variant-baseline)
	return b.String()
}
