package backend

import (
	"fmt"
	"io"

	"clap/internal/flow"
	"clap/internal/kitsune"
)

func init() {
	Register(TagKitsune, Factory{
		Doc:  "Baseline #2: Kitsune, the ensemble-autoencoder IDS (volume/timing features)",
		New:  func() Backend { return &Kitsune{Cfg: kitsune.DefaultConfig()} },
		Load: loadKitsune,
	})
}

var _ BatchScorer = (*Kitsune)(nil)

// Kitsune adapts Baseline #2 — formerly reachable only through the
// evaluation suite — to the Backend contract, making it a first-class,
// persistable detector. Mutate Cfg before Train.
type Kitsune struct {
	// Cfg is the training configuration; after Train (or a load) it mirrors
	// the model's own config.
	Cfg kitsune.Config
	// Kit is the trained model (nil until Train or a registry load).
	Kit *kitsune.Kitsune
}

func loadKitsune(r io.Reader) (Backend, error) {
	k, err := kitsune.Load(r)
	if err != nil {
		return nil, err
	}
	return &Kitsune{Cfg: k.Config(), Kit: k}, nil
}

// Tag implements Backend.
func (b *Kitsune) Tag() string { return TagKitsune }

// Describe implements Backend.
func (b *Kitsune) Describe() string {
	if b.Kit == nil {
		return "kitsune (untrained)"
	}
	return fmt.Sprintf("Kitsune{ensemble=%d, features=%d, lambdas=%d}",
		b.Kit.EnsembleSize(), kitsune.NumFeatures, len(b.Cfg.Lambdas))
}

// WindowSpan implements Backend: Kitsune scores per packet.
func (b *Kitsune) WindowSpan() int { return 1 }

// Trained implements Backend.
func (b *Kitsune) Trained() bool { return b.Kit != nil }

// Train implements Backend: Kitsune trains online over the flattened
// benign packet stream (FM-grace then AD-grace, §4.1).
func (b *Kitsune) Train(benign []*flow.Connection, logf Logf) error {
	pkts := flow.Flatten(benign)
	if len(pkts) == 0 {
		return fmt.Errorf("backend: no packets to train kitsune on")
	}
	k := kitsune.New(b.Cfg)
	k.Train(pkts)
	b.Kit = k
	logf("kitsune: trained ensemble of %d autoencoders on %d packets", k.EnsembleSize(), len(pkts))
	return nil
}

// ScoreConn implements Backend: the max packet score over a fresh
// statistics context.
func (b *Kitsune) ScoreConn(c *flow.Connection) float64 {
	score, _ := b.Summarize(WindowErrors(b, c))
	return score
}

// Windows implements BatchScorer: per packet, the ensemble's normalised
// errors over its AfterImage vector, against a fresh statistics context.
func (b *Kitsune) Windows(c *flow.Connection) [][]float64 { return b.Kit.Windows(c) }

// ScoreWindows implements BatchScorer: the output layer's per-packet
// anomaly scores.
func (b *Kitsune) ScoreWindows(wins [][]float64) []float64 { return b.Kit.ScoreWindows(wins) }

// Summarize implements Backend: max and argmax — the conventional
// flow-level reduction for per-packet IDSs.
func (b *Kitsune) Summarize(errs []float64) (float64, int) {
	if len(errs) == 0 {
		return 0, -1
	}
	peak := 0
	for i, e := range errs {
		if e > errs[peak] {
			peak = i
		}
	}
	return errs[peak], peak
}

// Save implements Backend.
func (b *Kitsune) Save(w io.Writer) error {
	if b.Kit == nil {
		return fmt.Errorf("backend: saving untrained kitsune backend")
	}
	return b.Kit.Save(w)
}

// Model exposes the underlying Kitsune for Table 6 reporting.
func (b *Kitsune) Model() *kitsune.Kitsune { return b.Kit }
