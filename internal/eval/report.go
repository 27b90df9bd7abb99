package eval

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"clap/internal/attacks"
	"clap/internal/backend"
	"clap/internal/engine"
	"clap/internal/features"
	"clap/internal/flow"
	"clap/internal/tcpstate"
)

// The renderers below regenerate the paper's tables and figures as text.
// Figures become per-strategy series (one line per bar); DESIGN.md §5
// indexes which benchmark regenerates which table or figure.

// Table1 renders the detection breakdown per strategy corpus (paper
// Table 1).
func Table1(rs []StrategyResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: mean detection performance per strategy corpus\n")
	fmt.Fprintf(&b, "%-28s %-10s %-8s %-10s %-8s %-10s %-8s\n",
		"Corpus", "CLAP-AUC", "CLAP-EER", "B1-AUC", "B1-EER", "B2-AUC", "B2-EER")
	row := func(label string, a Aggregate) {
		fmt.Fprintf(&b, "%-28s %-10.3f %-8.3f %-10.3f %-8.3f %-10.3f %-8.3f\n",
			label, a.AUC, a.EER, a.AUCB1, a.EERB1, a.AUCKit, a.EERKit)
	}
	row("SymTCP [23] (30)", Summarise(FilterSource(rs, attacks.SourceSymTCP)))
	row("lib-erate [10] (23)", Summarise(FilterSource(rs, attacks.SourceLiberate)))
	row("Geneva [4] (20)", Summarise(FilterSource(rs, attacks.SourceGeneva)))
	row("Overall (73)", Summarise(rs))
	return b.String()
}

// Table2 renders the inter- vs intra-packet violation breakdown using the
// empirical TH_inter rule (paper Table 2).
func Table2(rs []StrategyResult) string {
	inter, intra := Categorize(rs)
	ia, ra := Summarise(inter), Summarise(intra)
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: detection by primary context violation (TH_inter=%.2f)\n", THInter)
	fmt.Fprintf(&b, "%-34s %-10s %-10s %-10s %-10s\n", "Category", "CLAP-AUC", "B1-AUC", "CLAP-EER", "B1-EER")
	fmt.Fprintf(&b, "%-34s %-10.3f %-10.3f %-10.3f %-10.3f\n",
		fmt.Sprintf("Inter-packet violation (%d)", ia.N), ia.AUC, ia.AUCB1, ia.EER, ia.EERB1)
	fmt.Fprintf(&b, "%-34s %-10.3f %-10.3f %-10.3f %-10.3f\n",
		fmt.Sprintf("Intra-packet violation (%d)", ra.N), ra.AUC, ra.AUCB1, ra.EER, ra.EERB1)
	return b.String()
}

// Throughput is a Table 3 measurement.
type Throughput struct {
	Packets, Connections int
	Elapsed              time.Duration
}

// PacketsPerSecond returns the packet-processing rate.
func (t Throughput) PacketsPerSecond() float64 {
	return float64(t.Packets) / t.Elapsed.Seconds()
}

// ConnectionsPerSecond returns the connection-processing rate.
func (t Throughput) ConnectionsPerSecond() float64 {
	return float64(t.Connections) / t.Elapsed.Seconds()
}

// MeasureThroughput times b scoring conns through eng's micro-batcher,
// the path Pipeline.Run and clap-serve deploy: Table 3 and Table 9
// measure it on one worker and on all of them.
func MeasureThroughput(eng *engine.Engine, b backend.Backend, conns []*flow.Connection) Throughput {
	th := Throughput{Connections: len(conns)}
	for _, c := range conns {
		th.Packets += c.Len()
	}
	start := time.Now()
	_ = eng.ScoresBatched(b, conns)
	th.Elapsed = time.Since(start)
	return th
}

// Table3 measures and renders the throughput comparison (paper Table 3)
// over conns: each system scored as deployed, through the batched engine,
// on one worker (the paper's single-core measurement) and on the suite's
// engine.
func Table3(s *Suite, conns []*flow.Connection) string {
	one, all := engine.New(engine.Options{Workers: 1}), s.engineOrDefault()
	clapB, kitB := s.Backends[backend.TagCLAP], s.Backends[TagKitsune]
	clap1, kit1 := MeasureThroughput(one, clapB, conns), MeasureThroughput(one, kitB, conns)
	clapN, kitN := MeasureThroughput(all, clapB, conns), MeasureThroughput(all, kitB, conns)
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: model processing throughput (batched engine)\n")
	fmt.Fprintf(&b, "%-28s %-14s %-14s\n", "Metric", "CLAP", "Kitsune [17]")
	gain := clap1.PacketsPerSecond()/kit1.PacketsPerSecond()*100 - 100
	fmt.Fprintf(&b, "%-28s %-14.1f %-14.1f (CLAP %+.1f%%)\n", "Packets/second (1 core)",
		clap1.PacketsPerSecond(), kit1.PacketsPerSecond(), gain)
	fmt.Fprintf(&b, "%-28s %-14.1f %-14.1f\n", "Connections/second (1 core)",
		clap1.ConnectionsPerSecond(), kit1.ConnectionsPerSecond())
	fmt.Fprintf(&b, "%-28s %-14.1f %-14.1f (CLAP %.2fx one worker)\n",
		fmt.Sprintf("Packets/second (%d workers)", all.Workers()),
		clapN.PacketsPerSecond(), kitN.PacketsPerSecond(), clapN.PacketsPerSecond()/clap1.PacketsPerSecond())
	return b.String()
}

// Table4 renders dataset statistics (paper Table 4).
func Table4(d *Dataset) string {
	tr, te := flow.Census(d.Train), flow.Census(d.TestBenign)
	var advConns, advPkts int
	for _, cs := range d.Adv {
		for _, c := range cs {
			advConns++
			advPkts += c.Len()
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: dataset statistics (synthetic MAWI-like corpus)\n")
	fmt.Fprintf(&b, "%-42s %d\n", "# TCP/IPv4 packets (training)", tr.Packets)
	fmt.Fprintf(&b, "%-42s %d\n", "# TCP/IPv4 connections (training)", tr.Connections)
	fmt.Fprintf(&b, "%-42s %d\n", "# TCP/IPv4 packets (benign testing)", te.Packets)
	fmt.Fprintf(&b, "%-42s %d\n", "# TCP/IPv4 connections (benign testing)", te.Connections)
	fmt.Fprintf(&b, "%-42s %d\n", "# adversarial packets+carriers (testing)", advPkts)
	fmt.Fprintf(&b, "%-42s %d\n", "# adversarial connections (testing)", advConns)
	return b.String()
}

// Table5 renders the per-label RNN accuracy breakdown (paper Table 5).
func Table5(s *Suite) string {
	hits, totals := s.engineOrDefault().RNNAccuracy(s.CLAP, s.Data.TestBenign)
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: per-label RNN state-prediction accuracy\n")
	fmt.Fprintf(&b, "%-26s %-10s %-10s %-10s\n", "Label", "Accuracy", "Hits", "Samples")
	var h, n int
	for cls := 0; cls < tcpstate.NumClasses; cls++ {
		if totals[cls] == 0 {
			continue
		}
		l := tcpstate.LabelFromClass(cls)
		fmt.Fprintf(&b, "%-26s %-10.4f %-10d %-10d\n",
			l.String(), float64(hits[cls])/float64(totals[cls]), hits[cls], totals[cls])
		h += hits[cls]
		n += totals[cls]
	}
	fmt.Fprintf(&b, "%-26s %-10.4f %-10d %-10d\n", "OVERALL", float64(h)/float64(n), h, n)
	return b.String()
}

// Table6 renders the live model hyper-parameters (paper Table 6).
func Table6(s *Suite) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6: model hyper-parameters\n")
	c := s.Opt.CLAP
	fmt.Fprintf(&b, "RNN (GRU) in CLAP:        layers=1 input=%d hidden/gate=%d classes=%d epochs=%d\n",
		features.NumRNN, c.RNNHidden, tcpstate.NumClasses, c.RNNEpochs)
	fmt.Fprintf(&b, "Autoencoder in CLAP:      chain=%v stacking=%d epochs=%d\n",
		c.AESizes(), c.StackLength, c.AEEpochs)
	b1 := s.Opt.B1
	fmt.Fprintf(&b, "Autoencoder in Baseline1: chain=%v stacking=%d epochs=%d\n",
		b1.AESizes(), b1.StackLength, b1.AEEpochs)
	fmt.Fprintf(&b, "Baseline2 (Kitsune):      ensemble=%d total-input=%d max-AE-input=%d hidden-ratio=%.2f\n",
		s.Kit.EnsembleSize(), 100, s.Opt.Kit.MaxAEInput, s.Opt.Kit.HiddenRatio)
	return b.String()
}

// Table7 renders the feature schema (paper Table 7).
func Table7() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 7: features in the context profile\n")
	for _, f := range features.Schema() {
		kind := "Numeric"
		if f.Kind == features.Binary {
			kind = "Binary"
		}
		rnn := ""
		if f.RNNInput {
			rnn = "(RNN input)"
		}
		fmt.Fprintf(&b, "#%-3d %-14s %-8s %-58s %s\n", f.Index+1, f.Group, kind, f.Name, rnn)
	}
	fmt.Fprintf(&b, "plus %d update-gate and %d reset-gate weights from the GRU\n", 32, 32)
	return b.String()
}

// Table8 renders the empirical per-context categorization (paper Table 8).
func Table8(rs []StrategyResult) string {
	inter, intra := Categorize(rs)
	var b strings.Builder
	fmt.Fprintf(&b, "Table 8: per-context categorization of the 73 strategies (TH_inter=%.2f)\n", THInter)
	section := func(label string, set []StrategyResult) {
		fmt.Fprintf(&b, "%s (%d):\n", label, len(set))
		sorted := append([]StrategyResult(nil), set...)
		SortByName(sorted)
		for _, r := range sorted {
			marker := " "
			if string(r.Strategy.Category) != strings.ToLower(label[:5])+"-packet" {
				marker = "*" // differs from the mechanistic prior
			}
			fmt.Fprintf(&b, "  %s [%-8s] %-58s ΔAUC=%+.3f\n",
				marker, r.Strategy.Source, r.Strategy.Name, r.AUC-r.AUCB1)
		}
	}
	section("Inter-packet context violation", inter)
	section("Intra-packet context violation", intra)
	fmt.Fprintf(&b, "(* = empirical category differs from the declared mechanistic prior)\n")
	return b.String()
}

// FigureDetection renders one of Figures 7-9: per-strategy detection AUC
// for a corpus, with both baselines.
func FigureDetection(num int, src attacks.Source, rs []StrategyResult) string {
	sub := FilterSource(rs, src)
	SortByName(sub)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d: per-strategy detection accuracy — %s\n", num, src)
	fmt.Fprintf(&b, "%-58s %-9s %-9s %-9s %-8s\n", "Strategy", "CLAP-AUC", "B1-AUC", "B2-AUC", "CLAP-EER")
	for _, r := range sub {
		fmt.Fprintf(&b, "%-58s %-9.3f %-9.3f %-9.3f %-8.3f\n",
			r.Strategy.Name, r.AUC, r.AUCB1, r.AUCKit, r.EER)
	}
	return b.String()
}

// FigureLocalization renders one of Figures 10-12: per-strategy Top-5/3/1
// localization hit rates.
func FigureLocalization(num int, src attacks.Source, rs []StrategyResult) string {
	sub := FilterSource(rs, src)
	SortByName(sub)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d: per-strategy localization accuracy — %s\n", num, src)
	fmt.Fprintf(&b, "%-58s %-7s %-7s %-7s\n", "Strategy", "Top-5", "Top-3", "Top-1")
	for _, r := range sub {
		fmt.Fprintf(&b, "%-58s %-7.3f %-7.3f %-7.3f\n", r.Strategy.Name, r.Top5, r.Top3, r.Top1)
	}
	return b.String()
}

// Figure6 renders the reconstruction-error trend across one adversarial
// connection (paper Figure 6): the error spikes at the injected packet and
// falls back to the benign level.
func Figure6(s *Suite, strategyName string) string {
	st, ok := attacks.ByName(strategyName)
	if !ok {
		return "unknown strategy: " + strategyName
	}
	rng := rand.New(rand.NewSource(strategySeed(s.Opt.Seed, st.Name)))
	var b strings.Builder
	for _, base := range s.Data.AdvBase {
		if base.Len() < 12 {
			continue
		}
		cc := base.Clone()
		if !st.Apply(cc, rng) {
			continue
		}
		sc := s.CLAP.ScoreFromErrors(backend.WindowErrors(backend.FromDetector(s.CLAP), cc))
		fmt.Fprintf(&b, "Figure 6: reconstruction errors across a connection — %s\n", st.Name)
		fmt.Fprintf(&b, "adversarial packet index: %v, peak window: %d\n", cc.AdvIdx, sc.PeakWindow)
		max := 0.0
		for _, e := range sc.Errors {
			if e > max {
				max = e
			}
		}
		for i, e := range sc.Errors {
			bar := strings.Repeat("#", int(e/max*50))
			mark := ""
			for _, a := range cc.AdvIdx {
				if s.CLAP.Cfg.StackLength > 0 && i <= a && a < i+s.CLAP.Cfg.StackLength {
					mark = " <- contains adversarial packet"
				}
			}
			fmt.Fprintf(&b, "win %3d %7.4f %s%s\n", i, e, bar, mark)
		}
		return b.String()
	}
	return "no suitable connection found"
}

// FullReport renders every table and figure in order.
func FullReport(s *Suite, rs []StrategyResult) string {
	var b strings.Builder
	sections := []string{
		Table1(rs),
		Table2(rs),
		Table4(s.Data),
		Table5(s),
		Table6(s),
		Table7(),
		Table8(rs),
		FigureDetection(7, attacks.SourceSymTCP, rs),
		FigureDetection(8, attacks.SourceLiberate, rs),
		FigureDetection(9, attacks.SourceGeneva, rs),
		FigureLocalization(10, attacks.SourceSymTCP, rs),
		FigureLocalization(11, attacks.SourceLiberate, rs),
		FigureLocalization(12, attacks.SourceGeneva, rs),
		Figure6(s, "GFW: Injected RST Bad TCP-Checksum/MD5-Option"),
	}
	for _, sec := range sections {
		b.WriteString(sec)
		b.WriteString("\n")
	}
	// Table 3 last: throughput over the adversarial corpus.
	var advConns []*flow.Connection
	names := make([]string, 0, len(s.Data.Adv))
	for name := range s.Data.Adv {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		advConns = append(advConns, s.Data.Adv[name]...)
	}
	b.WriteString(Table3(s, advConns))
	// Table 9: the tiered-deployment frontier over the same trained models.
	if f, err := s.CascadeFrontier(nil); err == nil {
		b.WriteString("\n")
		b.WriteString(TableFrontier(f))
	}
	return b.String()
}
