package eval

import (
	"errors"
	"fmt"
	"io"

	"clap/internal/backend"
	"clap/internal/flow"
	"clap/internal/kitsune"
)

// TagKitsune keys Baseline #2 in the suite's per-backend maps and reports.
const TagKitsune = "kitsune"

var _ backend.BatchScorer = (*Kitsune)(nil)

// Kitsune adapts Baseline #2, the ensemble-autoencoder IDS, to the Backend
// contract so the suite scores it through the engine's batcher like the
// other two systems. It is an evaluation baseline, not a deployable
// model: it is absent from the backend registry and does not persist.
// Mutate Cfg before Train.
type Kitsune struct {
	Cfg kitsune.Config
	// Kit is the trained model (nil until Train).
	Kit *kitsune.Kitsune
}

// Tag implements backend.Backend.
func (b *Kitsune) Tag() string { return TagKitsune }

// Describe implements backend.Backend.
func (b *Kitsune) Describe() string {
	if b.Kit == nil {
		return "kitsune (untrained)"
	}
	return fmt.Sprintf("Kitsune{ensemble=%d, features=%d, lambdas=%d}",
		b.Kit.EnsembleSize(), kitsune.NumFeatures, len(b.Cfg.Lambdas))
}

// WindowSpan implements backend.Backend: Kitsune scores per packet.
func (b *Kitsune) WindowSpan() int { return 1 }

// Trained implements backend.Backend.
func (b *Kitsune) Trained() bool { return b.Kit != nil }

// Train implements backend.Backend: Kitsune trains online over the
// flattened benign packet stream (FM-grace then AD-grace, §4.1).
func (b *Kitsune) Train(benign []*flow.Connection, logf backend.Logf) error {
	pkts := flow.Flatten(benign)
	if len(pkts) == 0 {
		return errors.New("eval: no packets to train kitsune on")
	}
	k := kitsune.New(b.Cfg)
	k.Train(pkts)
	b.Kit = k
	logf("kitsune: trained ensemble of %d autoencoders on %d packets", k.EnsembleSize(), len(pkts))
	return nil
}

// ScoreConn implements backend.Backend: the max packet score over a fresh
// statistics context.
func (b *Kitsune) ScoreConn(c *flow.Connection) float64 {
	score, _ := b.Summarize(backend.WindowErrors(b, c))
	return score
}

// Windows implements backend.BatchScorer: per packet, the ensemble's
// normalised errors over its AfterImage vector, against a fresh
// statistics context.
func (b *Kitsune) Windows(c *flow.Connection) [][]float64 { return b.Kit.Windows(c) }

// ScoreWindows implements backend.BatchScorer: the output layer's
// per-packet anomaly scores.
func (b *Kitsune) ScoreWindows(wins [][]float64) []float64 { return b.Kit.ScoreWindows(wins) }

// Summarize implements backend.Backend: max and argmax — the conventional
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

// Save implements backend.Backend by refusing: Kitsune is evaluation-only.
func (b *Kitsune) Save(io.Writer) error {
	return errors.New("eval: kitsune is an evaluation baseline and does not persist")
}
