package kitsune

import (
	"math"
	"math/rand"
	"sort"

	"clap/internal/flow"
	"clap/internal/nn"
	"clap/internal/packet"
)

// Config tunes the Kitsune baseline.
type Config struct {
	Seed int64
	// Lambdas are the AfterImage decay horizons.
	Lambdas []float64
	// MaxAEInput caps the feature-mapper cluster size (Kitsune's m). With
	// 100 features and a cap of 7 the ensemble lands around 16 small
	// autoencoders, matching Table 6.
	MaxAEInput int
	// HiddenRatio sizes each small autoencoder's bottleneck (β·d).
	HiddenRatio float64
	// FMWindow is the number of packets used to learn the feature map.
	FMWindow int
	// Learn is the SGD/Adam learning rate for the online training phase.
	Learn float64
}

// DefaultConfig mirrors the Kitsune defaults scaled to this corpus.
func DefaultConfig() Config {
	return Config{
		Seed:        1,
		Lambdas:     DefaultLambdas,
		MaxAEInput:  7,
		HiddenRatio: 0.75,
		FMWindow:    2000,
		Learn:       1e-3,
	}
}

// Kitsune is the assembled baseline: feature map, ensemble and output
// autoencoder over AfterImage features. It is trained online over a
// benign packet stream and then frozen for execution, exactly like the
// original system's FM-grace/AD-grace/execute phases.
type Kitsune struct {
	cfg Config

	clusters [][]int // feature indices per ensemble autoencoder
	ensemble []*nn.Autoencoder
	output   *nn.Autoencoder
	opts     []*nn.Adam
	outOpt   *nn.Adam

	// Running min/max normalisation, frozen after training.
	min, max []float64
	outMin   []float64
	outMax   []float64
	frozen   bool
}

// New creates an untrained Kitsune.
func New(cfg Config) *Kitsune {
	if cfg.MaxAEInput <= 0 {
		cfg.MaxAEInput = 7
	}
	if cfg.HiddenRatio <= 0 {
		cfg.HiddenRatio = 0.75
	}
	k := &Kitsune{cfg: cfg}
	k.min = make([]float64, NumFeatures)
	k.max = make([]float64, NumFeatures)
	for i := range k.min {
		k.min[i] = math.Inf(1)
		k.max[i] = math.Inf(-1)
	}
	return k
}

// EnsembleSize returns the number of small autoencoders (0 before
// training).
func (k *Kitsune) EnsembleSize() int { return len(k.ensemble) }

// Clusters exposes the learned feature map (for Table 6 reporting).
func (k *Kitsune) Clusters() [][]int { return k.clusters }

// Train runs the full online training pass over a benign packet stream:
// the first FMWindow packets learn the feature map, the remainder train the
// ensemble.
func (k *Kitsune) Train(pkts []*packet.Packet) {
	rng := rand.New(rand.NewSource(k.cfg.Seed))
	ext := NewExtractor(k.cfg.Lambdas)
	var fmWindow [][]float64
	for _, p := range pkts {
		v := ext.Update(p)
		k.observeMinMax(v)
		if k.ensemble == nil {
			fmWindow = append(fmWindow, v)
			if len(fmWindow) >= k.cfg.FMWindow {
				k.buildFeatureMap(fmWindow, rng)
				// Replay the grace window as training data.
				for _, w := range fmWindow {
					k.trainVector(w)
				}
				fmWindow = nil
			}
			continue
		}
		k.trainVector(v)
	}
	if k.ensemble == nil {
		// Stream shorter than the grace window: build from what we have.
		k.buildFeatureMap(fmWindow, rng)
		for _, w := range fmWindow {
			k.trainVector(w)
		}
	}
	k.frozen = true
}

func (k *Kitsune) observeMinMax(v []float64) {
	if k.frozen {
		return
	}
	for i, x := range v {
		if x < k.min[i] {
			k.min[i] = x
		}
		if x > k.max[i] {
			k.max[i] = x
		}
	}
}

// normalize maps a raw vector to [0,1] per feature with the training
// bounds.
func (k *Kitsune) normalize(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		span := k.max[i] - k.min[i]
		if span <= 0 || math.IsInf(k.min[i], 1) {
			continue
		}
		n := (x - k.min[i]) / span
		if n < 0 {
			n = 0
		}
		if n > 1 {
			n = 1
		}
		out[i] = n
	}
	return out
}

// buildFeatureMap clusters features by correlation distance
// (agglomerative, capped cluster size), Kitsune's FM phase.
func (k *Kitsune) buildFeatureMap(window [][]float64, rng *rand.Rand) {
	n := NumFeatures
	corr := correlationMatrix(window, n)

	type cluster struct{ members []int }
	clusters := make([]*cluster, n)
	for i := range clusters {
		clusters[i] = &cluster{members: []int{i}}
	}
	dist := func(a, b *cluster) float64 {
		// Average-linkage over 1−|ρ|.
		var s float64
		for _, i := range a.members {
			for _, j := range b.members {
				s += 1 - math.Abs(corr[i][j])
			}
		}
		return s / float64(len(a.members)*len(b.members))
	}
	for {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if len(clusters[i].members)+len(clusters[j].members) > k.cfg.MaxAEInput {
					continue
				}
				if d := dist(clusters[i], clusters[j]); d < best {
					bi, bj, best = i, j, d
				}
			}
		}
		if bi < 0 || best > 0.9 {
			break
		}
		clusters[bi].members = append(clusters[bi].members, clusters[bj].members...)
		sort.Ints(clusters[bi].members)
		clusters = append(clusters[:bj], clusters[bj+1:]...)
	}

	k.clusters = make([][]int, len(clusters))
	k.ensemble = make([]*nn.Autoencoder, len(clusters))
	k.opts = make([]*nn.Adam, len(clusters))
	for i, c := range clusters {
		k.clusters[i] = c.members
		d := len(c.members)
		h := int(math.Ceil(float64(d) * k.cfg.HiddenRatio))
		if h < 1 {
			h = 1
		}
		k.ensemble[i] = nn.NewAutoencoder([]int{d, h, d}, rng)
		k.opts[i] = nn.NewAdam(k.cfg.Learn)
		k.opts[i].Register(k.ensemble[i].Params()...)
	}
	m := len(clusters)
	hOut := int(math.Ceil(float64(m) * k.cfg.HiddenRatio))
	if hOut < 1 {
		hOut = 1
	}
	k.output = nn.NewAutoencoder([]int{m, hOut, m}, rng)
	k.outOpt = nn.NewAdam(k.cfg.Learn)
	k.outOpt.Register(k.output.Params()...)
	k.outMin = make([]float64, m)
	k.outMax = make([]float64, m)
	for i := range k.outMin {
		k.outMin[i] = math.Inf(1)
		k.outMax[i] = math.Inf(-1)
	}
}

func correlationMatrix(window [][]float64, n int) [][]float64 {
	mean := make([]float64, n)
	for _, v := range window {
		for i := 0; i < n; i++ {
			mean[i] += v[i]
		}
	}
	for i := range mean {
		mean[i] /= float64(len(window))
	}
	std := make([]float64, n)
	corr := make([][]float64, n)
	for i := range corr {
		corr[i] = make([]float64, n)
	}
	for _, v := range window {
		for i := 0; i < n; i++ {
			std[i] += (v[i] - mean[i]) * (v[i] - mean[i])
		}
	}
	for i := range std {
		std[i] = math.Sqrt(std[i])
	}
	for _, v := range window {
		for i := 0; i < n; i++ {
			ri := v[i] - mean[i]
			for j := i; j < n; j++ {
				corr[i][j] += ri * (v[j] - mean[j])
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			d := std[i] * std[j]
			if d > 0 {
				corr[i][j] /= d
			} else if i == j {
				corr[i][j] = 1
			} else {
				corr[i][j] = 0
			}
			corr[j][i] = corr[i][j]
		}
	}
	return corr
}

// slice gathers a normalized sub-vector for ensemble member i.
func (k *Kitsune) slice(norm []float64, i int) []float64 {
	out := make([]float64, len(k.clusters[i]))
	for j, f := range k.clusters[i] {
		out[j] = norm[f]
	}
	return out
}

// ensembleErrors computes the per-member reconstruction errors.
func (k *Kitsune) ensembleErrors(norm []float64) []float64 {
	errs := make([]float64, len(k.ensemble))
	for i, ae := range k.ensemble {
		errs[i] = ae.Error(k.slice(norm, i))
	}
	return errs
}

func (k *Kitsune) normalizeErrs(errs []float64) []float64 {
	out := make([]float64, len(errs))
	for i, e := range errs {
		if !k.frozen {
			if e < k.outMin[i] {
				k.outMin[i] = e
			}
			if e > k.outMax[i] {
				k.outMax[i] = e
			}
		}
		span := k.outMax[i] - k.outMin[i]
		if span <= 0 || math.IsInf(k.outMin[i], 1) {
			continue
		}
		n := (e - k.outMin[i]) / span
		if n < 0 {
			n = 0
		}
		if n > 1 {
			n = 1
		}
		out[i] = n
	}
	return out
}

func (k *Kitsune) trainVector(v []float64) {
	norm := k.normalize(v)
	for i, ae := range k.ensemble {
		ae.TrainBatch([][]float64{k.slice(norm, i)}, k.opts[i], 5)
	}
	errs := k.normalizeErrs(k.ensembleErrors(norm))
	k.output.TrainBatch([][]float64{errs}, k.outOpt, 5)
}

// Windows returns a connection's per-packet windows: each packet's
// AfterImage vector, normalised and reconstructed by the ensemble, as the
// vector of normalised ensemble errors the output layer reads — one
// float per ensemble member. ScoreWindows runs that output layer, as
// CLAP's runs its autoencoder over windows its GRU built. Keeping the
// ensemble's errors rather than the 100-feature vectors keeps a long
// connection's resident windows small. The connection is replayed into a
// fresh extractor (models and normalisation stay shared and frozen) so
// that repeatedly scoring overlapping corpora, as the per-strategy
// evaluation does, cannot contaminate the damped statistics with
// replayed traffic. Because the per-call extractor is the only mutable
// state, Windows is safe for concurrent use on a trained (frozen) model.
func (k *Kitsune) Windows(c *flow.Connection) [][]float64 {
	ext := NewExtractor(k.cfg.Lambdas)
	out := make([][]float64, len(c.Packets))
	for i, p := range c.Packets {
		out[i] = k.normalizeErrs(k.ensembleErrors(k.normalize(ext.Update(p))))
	}
	return out
}

// ScoreWindows runs the output layer over a batch of windows: each
// packet's anomaly score is the output autoencoder's reconstruction error
// of its ensemble errors — the Kitsune analogue of CLAP's per-window
// reconstruction errors. Element k depends on wins[k] alone. Safe for
// concurrent use on a trained model.
func (k *Kitsune) ScoreWindows(wins [][]float64) []float64 {
	out := make([]float64, len(wins))
	for i, v := range wins {
		out[i] = k.output.Error(v)
	}
	return out
}
