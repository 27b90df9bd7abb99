// Package eval assembles datasets, trains CLAP and both baselines, runs the
// per-strategy detection and localization experiments, and renders every
// table and figure of the paper's evaluation (§4). The bench harness in the
// repository root and cmd/clap-eval are thin wrappers over this package.
package eval

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"clap/internal/attacks"
	"clap/internal/backend"
	"clap/internal/core"
	"clap/internal/engine"
	"clap/internal/flow"
	"clap/internal/kitsune"
	"clap/internal/metrics"
	"clap/internal/trafficgen"
)

// Profile selects the experiment scale (DESIGN.md §5).
type Profile string

// Available profiles.
const (
	ProfileTiny Profile = "tiny" // unit tests
	ProfileFast Profile = "fast" // benches, quick reproduction
	ProfileFull Profile = "full" // overnight-quality reproduction
)

// Options parameterise a reproduction run.
type Options struct {
	Profile        Profile
	Seed           int64
	TrainConns     int
	TestBenign     int
	AdvPerStrategy int

	// Workers sizes the parallel scoring engine; <= 0 selects GOMAXPROCS.
	// Scores are bit-identical at any worker count.
	Workers int

	CLAP core.Config
	B1   core.Config
	Kit  kitsune.Config
}

// OptionsFor returns the canonical options of a profile.
func OptionsFor(p Profile) Options {
	o := Options{
		Profile: p, Seed: 1,
		CLAP: core.DefaultConfig(), B1: core.Baseline1Config(), Kit: kitsune.DefaultConfig(),
	}
	switch p {
	case ProfileTiny:
		o.TrainConns, o.TestBenign, o.AdvPerStrategy = 40, 16, 8
		o.CLAP.RNNEpochs, o.CLAP.AEEpochs = 4, 3
		o.B1.RNNEpochs, o.B1.AEEpochs = 2, 3
	case ProfileFull:
		o.TrainConns, o.TestBenign, o.AdvPerStrategy = 600, 240, 40
		o.CLAP.RNNEpochs, o.CLAP.AEEpochs, o.CLAP.AERestarts = 20, 60, 2
		o.B1.RNNEpochs, o.B1.AEEpochs, o.B1.AERestarts = 4, 600, 3
	default: // Fast
		o.Profile = ProfileFast
		o.TrainConns, o.TestBenign, o.AdvPerStrategy = 300, 120, 24
		o.CLAP.RNNEpochs, o.CLAP.AEEpochs, o.CLAP.AERestarts = 14, 40, 2
		o.B1.RNNEpochs, o.B1.AEEpochs, o.B1.AERestarts = 4, 500, 4
	}
	return o
}

// Dataset is the generated evaluation corpus.
type Dataset struct {
	Train      []*flow.Connection
	TestBenign []*flow.Connection
	// AdvBase is the pool of benign connections attacks are injected into.
	AdvBase []*flow.Connection
	// Adv maps strategy name to its adversarial test connections.
	Adv map[string][]*flow.Connection
	// AdvSrc maps strategy name to the AdvBase indices each adversarial
	// connection was derived from, enabling paired benign/adversarial
	// comparisons (the negative class for a strategy is the exact set of
	// carrier connections it was injected into).
	AdvSrc map[string][]int
}

// strategySeed derives a stable per-strategy RNG seed so results do not
// depend on evaluation order.
func strategySeed(base int64, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", base, name)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// BuildDataset generates the benign splits and the per-strategy adversarial
// corpora.
func BuildDataset(o Options) *Dataset {
	mk := func(n int, seedOff int64) []*flow.Connection {
		cfg := trafficgen.DefaultConfig(n)
		cfg.Seed = o.Seed + seedOff
		return trafficgen.Generate(cfg)
	}
	d := &Dataset{
		Train:      mk(o.TrainConns, 0),
		TestBenign: mk(o.TestBenign, 1_000_003),
		// A generous base pool: some strategies only apply to connections
		// with handshakes and data packets.
		AdvBase: mk(o.AdvPerStrategy*4+40, 2_000_003),
		Adv:     make(map[string][]*flow.Connection),
		AdvSrc:  make(map[string][]int),
	}
	for _, s := range attacks.All() {
		rng := rand.New(rand.NewSource(strategySeed(o.Seed, s.Name)))
		var conns []*flow.Connection
		var srcs []int
		for bi, base := range d.AdvBase {
			if len(conns) >= o.AdvPerStrategy {
				break
			}
			cc := base.Clone()
			if s.Apply(cc, rng) {
				cc.AttackName = s.Name
				conns = append(conns, cc)
				srcs = append(srcs, bi)
			}
		}
		d.Adv[s.Name] = conns
		d.AdvSrc[s.Name] = srcs
	}
	return d
}

// Suite bundles the dataset with the trained detection backends and their
// cached benign scores.
type Suite struct {
	Opt  Options
	Data *Dataset

	// Eng is the parallel scoring engine every evaluation loop runs
	// through. BuildSuite sets it from Options.Workers.
	Eng *engine.Engine

	// Backends holds the compared systems keyed by tag: CLAP and
	// Baseline #1 from the backend registry, and the Kitsune adapter,
	// which is evaluation-only. Adding a fourth system to the comparison is
	// one suiteSystems entry, not new suite plumbing.
	Backends map[string]backend.Backend

	// CLAP, B1 and Kit are typed views of the backends for the analyses
	// that are inherently system-specific (localization criteria, RNN
	// accuracy, ablations, Table 6's hyper-parameters).
	CLAP *core.Detector
	B1   *core.Detector
	Kit  *kitsune.Kitsune

	// Base caches each backend's scores over the unmodified carrier pool,
	// keyed by backend tag and indexed like Data.AdvBase: the paired
	// negative class for per-strategy ROC curves.
	Base map[string][]float64

	// TrainTime records how long each backend took to train, keyed by tag.
	TrainTime map[string]time.Duration
}

// suiteSystems returns the compared backends, untrained and configured
// for the profile.
func suiteSystems(o Options) ([]backend.Backend, error) {
	clapB, err := backend.New(backend.TagCLAP)
	if err != nil {
		return nil, err
	}
	b1, err := backend.New(backend.TagBaseline1)
	if err != nil {
		return nil, err
	}
	clapB.(*backend.CLAP).Cfg, b1.(*backend.CLAP).Cfg = o.CLAP, o.B1
	return []backend.Backend{clapB, b1, &Kitsune{Cfg: o.Kit}}, nil
}

// Tags returns the suite's backend tags in sorted (deterministic) order.
func (s *Suite) Tags() []string {
	tags := make([]string, 0, len(s.Backends))
	for t := range s.Backends {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	return tags
}

// BuildSuite generates data and trains all compared backends.
func BuildSuite(o Options, logf core.Logf) (*Suite, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Suite{Opt: o, TrainTime: map[string]time.Duration{}, Backends: map[string]backend.Backend{}}
	s.Eng = engine.New(engine.Options{Workers: o.Workers})
	logf("generating dataset (profile %s)...", o.Profile)
	s.Data = BuildDataset(o)

	systems, err := suiteSystems(o)
	if err != nil {
		return nil, err
	}
	for _, b := range systems {
		tag := b.Tag()
		logf("training %s on %d connections...", tag, len(s.Data.Train))
		start := time.Now()
		if err := b.Train(s.Data.Train, backend.Logf(logf)); err != nil {
			return nil, fmt.Errorf("training %s: %w", tag, err)
		}
		s.TrainTime[tag] = time.Since(start)
		s.Backends[tag] = b
	}
	s.CLAP = s.Backends[backend.TagCLAP].(*backend.CLAP).Detector()
	s.B1 = s.Backends[backend.TagBaseline1].(*backend.CLAP).Detector()
	s.Kit = s.Backends[TagKitsune].(*Kitsune).Kit

	logf("scoring carrier pool (%d connections, %d workers)...",
		len(s.Data.AdvBase), s.Eng.Workers())
	s.Base = map[string][]float64{}
	for _, tag := range s.Tags() {
		s.Base[tag] = s.Eng.ScoresBatched(s.Backends[tag], s.Data.AdvBase)
	}
	return s, nil
}

// engineOrDefault lets suites constructed without BuildSuite (tests,
// deserialized fixtures) still run through an engine.
func (s *Suite) engineOrDefault() *engine.Engine {
	if s.Eng == nil {
		s.Eng = engine.Default()
	}
	return s.Eng
}

// StrategyResult is the full per-strategy outcome (one bar of Figures 7-12).
type StrategyResult struct {
	Strategy attacks.Strategy
	N        int // adversarial connections evaluated

	// AUCByTag and EERByTag hold every compared backend's paired detection
	// metrics, keyed by registry tag — the generic comparison surface.
	AUCByTag map[string]float64
	EERByTag map[string]float64

	// Flattened views of the three paper systems for the fixed-shape
	// tables and figures.
	AUC, EER       float64 // CLAP
	AUCB1, EERB1   float64
	AUCKit, EERKit float64

	Top1, Top3, Top5 float64 // CLAP localization hit rates
}

// flatten mirrors the per-tag maps into the paper's named columns.
func (r *StrategyResult) flatten() {
	r.AUC, r.EER = r.AUCByTag[backend.TagCLAP], r.EERByTag[backend.TagCLAP]
	r.AUCB1, r.EERB1 = r.AUCByTag[backend.TagBaseline1], r.EERByTag[backend.TagBaseline1]
	r.AUCKit, r.EERKit = r.AUCByTag[TagKitsune], r.EERByTag[TagKitsune]
}

// EvaluateStrategy scores one strategy's adversarial corpus against every
// backend in the suite. The negative class is paired: the exact carrier
// connections the strategy was injected into, unmodified, so the ROC
// reflects the injected manipulation and not carrier-population skew.
func (s *Suite) EvaluateStrategy(st attacks.Strategy) StrategyResult {
	conns := s.Data.Adv[st.Name]
	srcs := s.Data.AdvSrc[st.Name]
	res := StrategyResult{
		Strategy: st, N: len(conns),
		AUCByTag: map[string]float64{}, EERByTag: map[string]float64{},
	}
	if len(conns) == 0 {
		return res
	}
	// One batched pass per backend over the strategy's corpus. CLAP's
	// score and all three localization levels derive from the same window
	// series.
	eng := s.engineOrDefault()
	var hits [3]int
	for _, tag := range s.Tags() {
		b := s.Backends[tag]
		ben := make([]float64, len(srcs))
		for i, bi := range srcs {
			ben[i] = s.Base[tag][bi]
		}
		adv := make([]float64, len(conns))
		for i, errs := range eng.WindowErrorsBatched(b, conns) {
			adv[i], _ = b.Summarize(errs)
			if tag != backend.TagCLAP || s.CLAP == nil {
				continue
			}
			for k, topN := range []int{1, 3, 5} {
				if s.CLAP.LocalizationHitErrors(conns[i], errs, topN) {
					hits[k]++
				}
			}
		}
		res.AUCByTag[tag] = metrics.AUC(ben, adv)
		res.EERByTag[tag] = metrics.EER(ben, adv)
	}
	res.flatten()
	n := float64(len(conns))
	res.Top1, res.Top3, res.Top5 = float64(hits[0])/n, float64(hits[1])/n, float64(hits[2])/n
	return res
}

// EvaluateAll runs every strategy in corpus order.
func (s *Suite) EvaluateAll() []StrategyResult {
	all := attacks.All()
	out := make([]StrategyResult, len(all))
	for i, st := range all {
		out[i] = s.EvaluateStrategy(st)
	}
	return out
}

// Aggregate summarises a result subset.
type Aggregate struct {
	N                            int
	AUC, EER                     float64
	AUCB1, EERB1, AUCKit, EERKit float64
	Top1, Top3, Top5             float64
}

// Summarise averages results (unweighted across strategies, as the paper
// reports).
func Summarise(rs []StrategyResult) Aggregate {
	var a Aggregate
	if len(rs) == 0 {
		return a
	}
	for _, r := range rs {
		a.AUC += r.AUC
		a.EER += r.EER
		a.AUCB1 += r.AUCB1
		a.EERB1 += r.EERB1
		a.AUCKit += r.AUCKit
		a.EERKit += r.EERKit
		a.Top1 += r.Top1
		a.Top3 += r.Top3
		a.Top5 += r.Top5
		a.N++
	}
	n := float64(a.N)
	a.AUC /= n
	a.EER /= n
	a.AUCB1 /= n
	a.EERB1 /= n
	a.AUCKit /= n
	a.EERKit /= n
	a.Top1 /= n
	a.Top3 /= n
	a.Top5 /= n
	return a
}

// FilterSource selects results from one corpus.
func FilterSource(rs []StrategyResult, src attacks.Source) []StrategyResult {
	var out []StrategyResult
	for _, r := range rs {
		if r.Strategy.Source == src {
			out = append(out, r)
		}
	}
	return out
}

// THInter is the paper's categorization threshold (§4.3): a strategy whose
// CLAP-vs-Baseline#1 AUC disparity exceeds it is primarily an inter-packet
// context violation.
const THInter = 0.15

// Categorize applies the empirical rule of §4.3 / Table 8.
func Categorize(rs []StrategyResult) (inter, intra []StrategyResult) {
	for _, r := range rs {
		if r.AUC-r.AUCB1 > THInter {
			inter = append(inter, r)
		} else {
			intra = append(intra, r)
		}
	}
	return inter, intra
}

// SortByName orders results alphabetically for stable rendering.
func SortByName(rs []StrategyResult) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Strategy.Name < rs[j].Strategy.Name })
}
