package clap

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§4) — see DESIGN.md's experiment index. Each benchmark (a)
// prints the regenerated table/figure once, and (b) times the operation the
// experiment measures. The deployed detector's performance is measured by
// cmd/clap-bench (BENCHMARK.json), not here.
//
// The shared fixture trains CLAP and both baselines once. Scale defaults to
// the "tiny" profile so the suite stays minutes-fast; set
// CLAP_BENCH_PROFILE=fast (or full) to regenerate publication-quality
// numbers (the headline results are recorded in CHANGES.md).

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"clap/internal/attacks"
	"clap/internal/backend"
	"clap/internal/core"
	"clap/internal/engine"
	"clap/internal/eval"
	"clap/internal/flow"
)

var (
	benchOnce    sync.Once
	benchSuite   *eval.Suite
	benchResults []eval.StrategyResult
	benchErr     error
)

func benchProfile() eval.Profile {
	if p := os.Getenv("CLAP_BENCH_PROFILE"); p != "" {
		return eval.Profile(p)
	}
	return eval.ProfileTiny
}

func fixture(b *testing.B) (*eval.Suite, []eval.StrategyResult) {
	b.Helper()
	benchOnce.Do(func() {
		opts := eval.OptionsFor(benchProfile())
		fmt.Printf("# training fixture (profile %s)...\n", opts.Profile)
		benchSuite, benchErr = eval.BuildSuite(opts, nil)
		if benchErr != nil {
			return
		}
		benchResults = benchSuite.EvaluateAll()
	})
	if benchErr != nil {
		b.Fatalf("fixture: %v", benchErr)
	}
	return benchSuite, benchResults
}

// printOnce guards each table/figure against b.N re-printing.
var printedSections sync.Map

func printSection(key, text string) {
	if _, loaded := printedSections.LoadOrStore(key, true); !loaded {
		fmt.Println(text)
	}
}

// advCorpus flattens the adversarial test corpus in stable order.
func advCorpus(s *eval.Suite) []*flow.Connection {
	var out []*flow.Connection
	for _, st := range attacks.All() {
		out = append(out, s.Data.Adv[st.Name]...)
	}
	return out
}

// --- Table 1: detection breakdown per strategy corpus. Times one full
// strategy evaluation (scoring its corpus against all three detectors).
func BenchmarkTable1_DetectionBreakdown(b *testing.B) {
	s, rs := fixture(b)
	printSection("table1", eval.Table1(rs))
	st, _ := attacks.ByName("GFW: Injected RST Bad TCP-Checksum/MD5-Option")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.EvaluateStrategy(st)
	}
}

// --- Table 2: inter- vs intra-packet context violations.
func BenchmarkTable2_ContextBreakdown(b *testing.B) {
	_, rs := fixture(b)
	printSection("table2", eval.Table2(rs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inter, intra := eval.Categorize(rs)
		_ = eval.Summarise(inter)
		_ = eval.Summarise(intra)
	}
}

// --- Table 3: processing throughput, CLAP vs Kitsune, scored as deployed:
// through the batched engine. The benchmark loop itself is the measurement
// (packets/second on one worker).
func BenchmarkTable3_ThroughputCLAP(b *testing.B) {
	s, _ := fixture(b)
	conns := advCorpus(s)
	printSection("table3", eval.Table3(s, conns))
	benchOneWorker(b, s.Backends[backend.TagCLAP], conns)
}

func BenchmarkTable3_ThroughputKitsune(b *testing.B) {
	s, _ := fixture(b)
	benchOneWorker(b, s.Backends[eval.TagKitsune], advCorpus(s))
}

// benchOneWorker times one-worker batched scoring of the whole corpus per
// iteration and reports pkts/s.
func benchOneWorker(b *testing.B, bk backend.Backend, conns []*flow.Connection) {
	eng := engine.New(engine.Options{Workers: 1})
	pkts := 0
	for _, c := range conns {
		pkts += c.Len()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eng.ScoresBatched(bk, conns)
	}
	b.ReportMetric(float64(pkts*b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// --- Table 4: dataset statistics.
func BenchmarkTable4_DatasetStats(b *testing.B) {
	s, _ := fixture(b)
	printSection("table4", eval.Table4(s.Data))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = flow.Census(s.Data.Train)
	}
}

// --- Table 5: per-label RNN accuracy.
func BenchmarkTable5_RNNAccuracy(b *testing.B) {
	s, _ := fixture(b)
	printSection("table5", eval.Table5(s))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Eng.RNNAccuracy(s.CLAP, s.Data.TestBenign[:4])
	}
}

// --- Table 6: hyper-parameters of all models.
func BenchmarkTable6_Hyperparameters(b *testing.B) {
	s, _ := fixture(b)
	printSection("table6", eval.Table6(s))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eval.Table6(s)
	}
}

// --- Table 7: the feature schema.
func BenchmarkTable7_FeatureSchema(b *testing.B) {
	printSection("table7", eval.Table7())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eval.Table7()
	}
}

// --- Table 8: empirical per-context categorization.
func BenchmarkTable8_Categorization(b *testing.B) {
	_, rs := fixture(b)
	printSection("table8", eval.Table8(rs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eval.Table8(rs)
	}
}

// --- Figure 6: reconstruction-error trend across one adversarial
// connection. Times the full per-connection verification pipeline.
func BenchmarkFigure6_ErrorTrend(b *testing.B) {
	s, _ := fixture(b)
	printSection("figure6", eval.Figure6(s, "GFW: Injected RST Bad TCP-Checksum/MD5-Option"))
	conns := s.Data.Adv["GFW: Injected RST Bad TCP-Checksum/MD5-Option"]
	if len(conns) == 0 {
		b.Skip("no adversarial connections")
	}
	clapB := s.Backends[backend.TagCLAP]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = clapB.ScoreConn(conns[i%len(conns)])
	}
}

// figureDetectionBench times scoring of one corpus and prints its figure.
func figureDetectionBench(b *testing.B, num int, src attacks.Source) {
	s, rs := fixture(b)
	printSection(fmt.Sprintf("figure%d", num), eval.FigureDetection(num, src, rs))
	sub := attacks.BySource(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Eng.ScoresBatched(s.Backends[backend.TagCLAP], s.Data.Adv[sub[i%len(sub)].Name])
	}
}

// --- Figures 7-9: per-strategy detection accuracy.
func BenchmarkFigure7_SymTCPDetection(b *testing.B) { figureDetectionBench(b, 7, attacks.SourceSymTCP) }
func BenchmarkFigure8_LiberateDetection(b *testing.B) {
	figureDetectionBench(b, 8, attacks.SourceLiberate)
}
func BenchmarkFigure9_GenevaDetection(b *testing.B) { figureDetectionBench(b, 9, attacks.SourceGeneva) }

// figureLocalizationBench times Top-N localization and prints its figure.
func figureLocalizationBench(b *testing.B, num int, src attacks.Source) {
	s, rs := fixture(b)
	printSection(fmt.Sprintf("figure%d", num), eval.FigureLocalization(num, src, rs))
	sub := attacks.BySource(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conns := s.Data.Adv[sub[i%len(sub)].Name]
		for k, errs := range s.Eng.WindowErrorsBatched(s.Backends[backend.TagCLAP], conns) {
			_ = s.CLAP.LocalizationHitErrors(conns[k], errs, 5)
		}
	}
}

// --- Figures 10-12: per-strategy localization accuracy.
func BenchmarkFigure10_SymTCPLocalization(b *testing.B) {
	figureLocalizationBench(b, 10, attacks.SourceSymTCP)
}
func BenchmarkFigure11_LiberateLocalization(b *testing.B) {
	figureLocalizationBench(b, 11, attacks.SourceLiberate)
}
func BenchmarkFigure12_GenevaLocalization(b *testing.B) {
	figureLocalizationBench(b, 12, attacks.SourceGeneva)
}

// --- Ablations: each trains a variant detector under the suite's budget
// and compares mean AUC over the representative strategy mix. The timed
// operation is variant scoring.

var (
	ablationBaselineOnce sync.Once
	ablationBaselineAUC  float64
)

func ablationBaseline(b *testing.B, s *eval.Suite) float64 {
	ablationBaselineOnce.Do(func() {
		ablationBaselineAUC = s.EvaluateDetector(s.CLAP, eval.AblationStrategies)
	})
	return ablationBaselineAUC
}

// ablationVariants caches trained variants so the framework's repeated
// invocations of a benchmark function (growing b.N) do not retrain.
var ablationVariants sync.Map

func ablationBench(b *testing.B, label string, mutate func(*core.Config)) {
	s, _ := fixture(b)
	base := ablationBaseline(b, s)
	var det *core.Detector
	if cached, ok := ablationVariants.Load(label); ok {
		det = cached.(*core.Detector)
	} else {
		var err error
		det, err = s.TrainVariant(mutate, nil)
		if err != nil {
			b.Fatalf("training variant: %v", err)
		}
		ablationVariants.Store(label, det)
	}
	auc := s.EvaluateDetector(det, eval.AblationStrategies)
	printSection("ablation-"+label, eval.AblationReport(label, base, auc))
	conns := s.Data.Adv[eval.AblationStrategies[0]]
	variant := backend.FromDetector(det)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = variant.ScoreConn(conns[i%len(conns)])
	}
}

// BenchmarkAblation_NoStacking disables profile stacking (stack length 1
// instead of 3).
func BenchmarkAblation_NoStacking(b *testing.B) {
	ablationBench(b, "no-stacking", func(c *core.Config) { c.StackLength = 1 })
}

// BenchmarkAblation_NoGateWeights removes the RNN gate features — the
// difference between CLAP and a stacked Baseline #1.
func BenchmarkAblation_NoGateWeights(b *testing.B) {
	ablationBench(b, "no-gate-weights", func(c *core.Config) {
		c.UseUpdateGates, c.UseResetGates = false, false
	})
}

// BenchmarkAblation_UpdateGatesOnly keeps only the update gates.
func BenchmarkAblation_UpdateGatesOnly(b *testing.B) {
	ablationBench(b, "update-gates-only", func(c *core.Config) { c.UseResetGates = false })
}

// BenchmarkAblation_NoAmplification drops the 19 amplification features.
func BenchmarkAblation_NoAmplification(b *testing.B) {
	ablationBench(b, "no-amplification", func(c *core.Config) { c.UseAmplification = false })
}

// BenchmarkAblation_ScoreMetric compares the localize-and-estimate
// adversarial score against plain max and mean aggregation (no retraining
// needed).
func BenchmarkAblation_ScoreMetric(b *testing.B) {
	s, _ := fixture(b)
	loc := s.EvaluateScoreMetric(eval.AggLocalize, eval.AblationStrategies)
	max := s.EvaluateScoreMetric(eval.AggMax, eval.AblationStrategies)
	mean := s.EvaluateScoreMetric(eval.AggMean, eval.AblationStrategies)
	printSection("ablation-score-metric", fmt.Sprintf(
		"Ablation score-metric: localize-and-estimate=%.3f max=%.3f mean=%.3f\n", loc, max, mean))
	conns := s.Data.Adv[eval.AblationStrategies[0]]
	clapB := s.Backends[backend.TagCLAP]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = backend.WindowErrors(clapB, conns[i%len(conns)])
	}
}

// BenchmarkEngineAssemble compares sharded parallel flow assembly against
// the serial path over the flattened benign corpus.
func BenchmarkEngineAssemble(b *testing.B) {
	s, _ := fixture(b)
	pkts := flow.Flatten(s.Data.Train)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = flow.Assemble(pkts)
		}
	})
	for _, shards := range []int{4, 8} {
		eng := engine.New(engine.Options{Workers: 4, Shards: shards})
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = eng.Assemble(pkts)
			}
		})
	}
}

// --- End-to-end pipeline benchmarks (not tied to a table).

func BenchmarkPipelineTrainTiny(b *testing.B) {
	conns := GenerateBenign(20, 1)
	cfg := DefaultConfig()
	cfg.RNNEpochs, cfg.AEEpochs = 1, 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(conns, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}
