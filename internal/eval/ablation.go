package eval

import (
	"fmt"
	"strings"

	"clap/internal/backend"
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

// meanPairedAUC is the mean paired AUC over the named strategies of a
// detector whose scores score returns for a corpus, in input order. Each
// carrier connection the strategies reference is scored once.
func (s *Suite) meanPairedAUC(names []string, score func([]*flow.Connection) []float64) float64 {
	base := map[int]float64{}
	var need []int
	var carriers []*flow.Connection
	for _, name := range names {
		for _, bi := range s.Data.AdvSrc[name] {
			if _, seen := base[bi]; !seen {
				base[bi] = 0
				need = append(need, bi)
				carriers = append(carriers, s.Data.AdvBase[bi])
			}
		}
	}
	for i, v := range score(carriers) {
		base[need[i]] = v
	}
	var sum float64
	var n int
	for _, name := range names {
		conns := s.Data.Adv[name]
		srcs := s.Data.AdvSrc[name]
		if len(conns) == 0 {
			continue
		}
		adv := score(conns)
		ben := make([]float64, len(conns))
		for i := range conns {
			ben[i] = base[srcs[i]]
		}
		sum += metrics.AUC(ben, adv)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// EvaluateDetector computes the mean paired AUC of an arbitrary detector
// over the named strategies. Carrier and adversarial corpora are scored
// through the engine's batcher; results are independent of the worker
// count.
func (s *Suite) EvaluateDetector(det *core.Detector, names []string) float64 {
	eng, b := s.engineOrDefault(), backend.FromDetector(det)
	return s.meanPairedAUC(names, func(conns []*flow.Connection) []float64 {
		return eng.ScoresBatched(b, conns)
	})
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

// aggregate reduces window errors to a connection score; det supplies
// the paper's localize-and-estimate reduction.
func aggregate(errs []float64, agg ScoreAggregation, det *core.Detector) float64 {
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
		return det.ScoreFromErrors(errs).Adversarial
	}
}

// EvaluateScoreMetric computes the mean paired AUC of the suite's CLAP
// detector under an alternative score aggregation, with window errors
// computed through the engine's batcher.
func (s *Suite) EvaluateScoreMetric(agg ScoreAggregation, names []string) float64 {
	eng, b := s.engineOrDefault(), backend.FromDetector(s.CLAP)
	return s.meanPairedAUC(names, func(conns []*flow.Connection) []float64 {
		out := make([]float64, len(conns))
		for i, errs := range eng.WindowErrorsBatched(b, conns) {
			out[i] = aggregate(errs, agg, s.CLAP)
		}
		return out
	})
}

// AblationReport renders a comparison line.
func AblationReport(label string, baseline, variant float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation %-28s baseline(CLAP)=%.3f variant=%.3f Δ=%+.3f\n",
		label, baseline, variant, variant-baseline)
	return b.String()
}
