package eval

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"clap/internal/attacks"
	"clap/internal/backend"
	"clap/internal/engine"
	"clap/internal/flow"
	"clap/internal/metrics"
)

// The tiny suite takes a few seconds to train; share it across tests.
var (
	tinyOnce  sync.Once
	tinySuite *Suite
	tinyErr   error
)

func suite(t *testing.T) *Suite {
	t.Helper()
	tinyOnce.Do(func() {
		tinySuite, tinyErr = BuildSuite(OptionsFor(ProfileTiny), nil)
	})
	if tinyErr != nil {
		t.Fatalf("BuildSuite: %v", tinyErr)
	}
	return tinySuite
}

func TestOptionsProfiles(t *testing.T) {
	for _, p := range []Profile{ProfileTiny, ProfileFast, ProfileFull} {
		o := OptionsFor(p)
		if o.TrainConns <= 0 || o.TestBenign <= 0 || o.AdvPerStrategy <= 0 {
			t.Errorf("profile %s has empty sizes: %+v", p, o)
		}
	}
	if OptionsFor("bogus").Profile != ProfileFast {
		t.Error("unknown profile should fall back to fast")
	}
	// Scales must be ordered.
	if OptionsFor(ProfileTiny).TrainConns >= OptionsFor(ProfileFast).TrainConns ||
		OptionsFor(ProfileFast).TrainConns >= OptionsFor(ProfileFull).TrainConns {
		t.Error("profiles should scale up")
	}
}

func TestDatasetCoversAllStrategies(t *testing.T) {
	s := suite(t)
	if len(s.Data.Adv) != 73 {
		t.Fatalf("adversarial corpora for %d strategies, want 73", len(s.Data.Adv))
	}
	for name, conns := range s.Data.Adv {
		if len(conns) == 0 {
			t.Errorf("strategy %q has no adversarial connections", name)
		}
		if len(conns) != len(s.Data.AdvSrc[name]) {
			t.Errorf("strategy %q: %d conns but %d sources", name, len(conns), len(s.Data.AdvSrc[name]))
		}
		for _, c := range conns {
			if !c.IsAdversarial() {
				t.Errorf("strategy %q produced an unmarked connection", name)
			}
			if c.AttackName != name {
				t.Errorf("connection labeled %q under strategy %q", c.AttackName, name)
			}
		}
	}
}

func TestDatasetDeterminism(t *testing.T) {
	o := OptionsFor(ProfileTiny)
	a := BuildDataset(o)
	b := BuildDataset(o)
	for name := range a.Adv {
		if len(a.Adv[name]) != len(b.Adv[name]) {
			t.Fatalf("strategy %q: %d vs %d connections across runs", name, len(a.Adv[name]), len(b.Adv[name]))
		}
	}
	if len(a.Train) != len(b.Train) {
		t.Fatal("training sets differ across runs")
	}
}

func TestEvaluateStrategyProducesSaneMetrics(t *testing.T) {
	s := suite(t)
	st, _ := attacks.ByName("GFW: Injected RST Bad TCP-Checksum/MD5-Option")
	r := s.EvaluateStrategy(st)
	if r.N == 0 {
		t.Fatal("no adversarial connections evaluated")
	}
	for name, v := range map[string]float64{
		"AUC": r.AUC, "EER": r.EER, "AUCB1": r.AUCB1, "AUCKit": r.AUCKit,
		"Top1": r.Top1, "Top3": r.Top3, "Top5": r.Top5,
	} {
		if v < 0 || v > 1 {
			t.Errorf("%s = %g out of [0,1]", name, v)
		}
	}
	if r.Top5 < r.Top3 || r.Top3 < r.Top1 {
		t.Errorf("localization must be monotone: top1=%.2f top3=%.2f top5=%.2f", r.Top1, r.Top3, r.Top5)
	}
	// Even the tiny config must catch the motivating example decisively.
	if r.AUC < 0.8 {
		t.Errorf("motivating-example AUC = %.3f, want >= 0.8", r.AUC)
	}
}

func TestSummariseAndFilter(t *testing.T) {
	s := suite(t)
	rs := []StrategyResult{}
	for _, name := range []string{
		"Snort: Injected RST Pure",
		"Bad TCP Checksum (Min)",
		"Injected RST / Low TTL",
	} {
		st, _ := attacks.ByName(name)
		rs = append(rs, s.EvaluateStrategy(st))
	}
	agg := Summarise(rs)
	if agg.N != 3 {
		t.Fatalf("aggregate N = %d", agg.N)
	}
	if agg.AUC < 0 || agg.AUC > 1 {
		t.Errorf("aggregate AUC = %g", agg.AUC)
	}
	if len(FilterSource(rs, attacks.SourceSymTCP)) != 1 ||
		len(FilterSource(rs, attacks.SourceLiberate)) != 1 ||
		len(FilterSource(rs, attacks.SourceGeneva)) != 1 {
		t.Error("FilterSource partition wrong")
	}
	if Summarise(nil).N != 0 {
		t.Error("empty summary should have N=0")
	}
}

func TestCategorizePartitions(t *testing.T) {
	rs := []StrategyResult{
		{AUC: 0.9, AUCB1: 0.5},  // disparity 0.4 > 0.15: inter
		{AUC: 0.9, AUCB1: 0.85}, // disparity 0.05: intra
	}
	inter, intra := Categorize(rs)
	if len(inter) != 1 || len(intra) != 1 {
		t.Fatalf("categorize split %d/%d, want 1/1", len(inter), len(intra))
	}
}

func TestReportRenderers(t *testing.T) {
	s := suite(t)
	var rs []StrategyResult
	for _, name := range []string{
		"Snort: Injected RST Pure",
		"Bad TCP Checksum (Min)",
		"Injected RST / Low TTL",
	} {
		st, _ := attacks.ByName(name)
		rs = append(rs, s.EvaluateStrategy(st))
	}
	for label, out := range map[string]string{
		"Table1":   Table1(rs),
		"Table2":   Table2(rs),
		"Table4":   Table4(s.Data),
		"Table5":   Table5(s),
		"Table6":   Table6(s),
		"Table7":   Table7(),
		"Table8":   Table8(rs),
		"Figure7":  FigureDetection(7, attacks.SourceSymTCP, rs),
		"Figure10": FigureLocalization(10, attacks.SourceSymTCP, rs),
	} {
		if len(out) < 40 {
			t.Errorf("%s renders only %d bytes", label, len(out))
		}
		if strings.Contains(out, "NaN") {
			t.Errorf("%s contains NaN:\n%s", label, out)
		}
	}
}

func TestTable7MatchesSchema(t *testing.T) {
	out := Table7()
	if !strings.Contains(out, "Checksum validity") || !strings.Contains(out, "Out-of-Range") {
		t.Error("Table 7 missing expected features")
	}
	if !strings.Contains(out, "update-gate") {
		t.Error("Table 7 should mention gate weights")
	}
}

func TestFigure6ShowsSpike(t *testing.T) {
	s := suite(t)
	out := Figure6(s, "GFW: Injected RST Bad TCP-Checksum/MD5-Option")
	if !strings.Contains(out, "contains adversarial packet") {
		t.Errorf("Figure 6 missing adversarial marker:\n%s", out)
	}
	if Figure6(s, "nope") != "unknown strategy: nope" {
		t.Error("Figure 6 should reject unknown strategies")
	}
}

func TestThroughputMeasurement(t *testing.T) {
	s := suite(t)
	eng := engine.New(engine.Options{Workers: 1})
	th := MeasureThroughput(eng, s.Backends[backend.TagCLAP], s.Data.TestBenign[:8])
	if th.Packets == 0 || th.Elapsed <= 0 {
		t.Fatalf("empty throughput measurement: %+v", th)
	}
	if th.PacketsPerSecond() <= 0 || th.ConnectionsPerSecond() <= 0 {
		t.Error("rates must be positive")
	}
	kth := MeasureThroughput(eng, s.Backends[TagKitsune], s.Data.TestBenign[:8])
	if kth.Packets != th.Packets {
		t.Errorf("both detectors should see the same packets: %d vs %d", th.Packets, kth.Packets)
	}
}

func TestStrategySeedStable(t *testing.T) {
	if strategySeed(1, "a") != strategySeed(1, "a") {
		t.Error("strategySeed must be deterministic")
	}
	if strategySeed(1, "a") == strategySeed(1, "b") {
		t.Error("strategySeed should differ per name")
	}
	if strategySeed(1, "a") == strategySeed(2, "a") {
		t.Error("strategySeed should differ per base seed")
	}
}

// TestEvaluateStrategyMatchesOracles pins the evaluation to the serial
// oracles bit for bit: for every strategy on the tiny suite, each
// backend's paired AUC and EER and CLAP's Top-1/3/5 hit rates from the
// batched EvaluateStrategy equal those computed from per-connection
// oracle scores — Detector.Score and Detector.WindowErrors for the CLAP
// family, ScoreConn for Kitsune.
func TestEvaluateStrategyMatchesOracles(t *testing.T) {
	s := suite(t)
	score := map[string]func(c *flow.Connection) float64{
		backend.TagCLAP:      func(c *flow.Connection) float64 { return s.CLAP.Score(c).Adversarial },
		backend.TagBaseline1: func(c *flow.Connection) float64 { return s.B1.Score(c).Adversarial },
		TagKitsune:           s.Backends[TagKitsune].ScoreConn,
	}
	same := func(name, what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: %s = %v, oracle %v", name, what, got, want)
		}
	}
	for _, st := range attacks.All() {
		got := s.EvaluateStrategy(st)
		conns, srcs := s.Data.Adv[st.Name], s.Data.AdvSrc[st.Name]
		for tag, f := range score {
			ben := make([]float64, len(srcs))
			for i, bi := range srcs {
				ben[i] = f(s.Data.AdvBase[bi])
			}
			adv := make([]float64, len(conns))
			for i, c := range conns {
				adv[i] = f(c)
			}
			same(st.Name, tag+" AUC", got.AUCByTag[tag], metrics.AUC(ben, adv))
			same(st.Name, tag+" EER", got.EERByTag[tag], metrics.EER(ben, adv))
		}
		var hits [3]int
		for _, c := range conns {
			errs := s.CLAP.WindowErrors(c)
			for k, topN := range []int{1, 3, 5} {
				if s.CLAP.LocalizationHitErrors(c, errs, topN) {
					hits[k]++
				}
			}
		}
		n := float64(len(conns))
		same(st.Name, "Top-1", got.Top1, float64(hits[0])/n)
		same(st.Name, "Top-3", got.Top3, float64(hits[1])/n)
		same(st.Name, "Top-5", got.Top5, float64(hits[2])/n)
	}
}

// TestKitsuneAdapter: the suite's Kitsune scores through the batched pair
// like any backend — ScoreConn is Summarize of its window series, one
// window per packet — and refuses to persist: it is evaluation-only.
func TestKitsuneAdapter(t *testing.T) {
	s := suite(t)
	k := s.Backends[TagKitsune]
	if err := backend.Scorable(k); err != nil {
		t.Fatal(err)
	}
	for _, c := range s.Data.TestBenign[:4] {
		errs := backend.WindowErrors(k, c)
		if len(errs) != c.Len() {
			t.Fatalf("%d errors for %d packets", len(errs), c.Len())
		}
		if score, _ := k.Summarize(errs); score != k.ScoreConn(c) {
			t.Fatalf("ScoreConn %v != Summarize %v", k.ScoreConn(c), score)
		}
	}
	if score, peak := k.Summarize(nil); score != 0 || peak != -1 {
		t.Errorf("empty series summarized to (%v, %d), want (0, -1)", score, peak)
	}
	for _, b := range []backend.Backend{k, &Kitsune{}} {
		if err := b.Save(io.Discard); err == nil {
			t.Errorf("%s: Save succeeded", b.Describe())
		}
		if err := backend.Save(io.Discard, b); err == nil {
			t.Errorf("%s: backend.Save succeeded", b.Describe())
		}
	}
}
