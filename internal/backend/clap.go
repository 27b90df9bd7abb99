package backend

import (
	"fmt"
	"io"

	"clap/internal/core"
	"clap/internal/flow"
)

// Registry tags of the first-class backends.
const (
	// TagCLAP is the paper's full system (§3.3).
	TagCLAP = "clap"
	// TagBaseline1 is the temporal-context-agnostic CLAP (§4.1, Baseline #1):
	// the same pipeline family under Baseline1Config, persisted under its
	// own tag so a loaded model advertises what it is.
	TagBaseline1 = "baseline1"
)

func init() {
	Register(TagCLAP, Factory{
		New:  func() Backend { return &CLAP{tag: TagCLAP, Cfg: core.DefaultConfig()} },
		Load: func(r io.Reader) (Backend, error) { return loadCLAP(TagCLAP, r) },
	})
	Register(TagBaseline1, Factory{
		New:  func() Backend { return &CLAP{tag: TagBaseline1, Cfg: core.Baseline1Config()} },
		Load: func(r io.Reader) (Backend, error) { return loadCLAP(TagBaseline1, r) },
	})
}

// CLAP (and therefore Baseline #1) scores through the batched pair with
// pooled, recyclable window buffers.
var (
	_ BatchScorer   = (*CLAP)(nil)
	_ BatchRecycler = (*CLAP)(nil)
)

// CLAP adapts the core.Detector pipeline family — both the full system and
// Baseline #1, which is the same pipeline under an ablated Config — to the
// Backend contract. Mutate Cfg before Train to set seeds, epoch budgets or
// ablation switches.
type CLAP struct {
	tag string
	// Cfg is the training configuration; after Train (or a load) it mirrors
	// the detector's own config.
	Cfg core.Config
	// Det is the trained detector (nil until Train or a registry load).
	Det *core.Detector
}

// FromDetector wraps an already-trained detector as a Backend under the
// CLAP tag. The tag governs persistence dispatch only; the detector's own
// Config governs behaviour, so a Baseline #1-configured detector wrapped
// here still scores as Baseline #1.
func FromDetector(d *core.Detector) *CLAP {
	return &CLAP{tag: TagCLAP, Cfg: d.Cfg, Det: d}
}

func loadCLAP(tag string, r io.Reader) (Backend, error) {
	d, err := core.Load(r)
	if err != nil {
		return nil, err
	}
	return &CLAP{tag: tag, Cfg: d.Cfg, Det: d}, nil
}

// Tag implements Backend.
func (b *CLAP) Tag() string { return b.tag }

// Describe implements Backend.
func (b *CLAP) Describe() string {
	if b.Det == nil {
		return fmt.Sprintf("%s (untrained)", b.tag)
	}
	return b.Det.String()
}

// WindowSpan implements Backend: a stacked-profile window covers
// StackLength consecutive packets.
func (b *CLAP) WindowSpan() int {
	if b.Cfg.StackLength < 1 {
		return 1
	}
	return b.Cfg.StackLength
}

// Trained implements Backend.
func (b *CLAP) Trained() bool { return b.Det != nil }

// Train implements Backend.
func (b *CLAP) Train(benign []*flow.Connection, logf Logf) error {
	d, err := core.Train(benign, b.Cfg, core.Logf(logf))
	if err != nil {
		return err
	}
	b.Det = d
	return nil
}

// ScoreConn implements Backend.
func (b *CLAP) ScoreConn(c *flow.Connection) float64 {
	score, _ := b.Summarize(WindowErrors(b, c))
	return score
}

// Summarize implements Backend via the localize-and-estimate reduction
// (§3.3(d)) — identical to the serial Score path bit for bit.
func (b *CLAP) Summarize(errs []float64) (float64, int) {
	s := b.Det.ScoreFromErrors(errs)
	return s.Adversarial, s.PeakWindow
}

// Windows implements BatchScorer: the connection's stacked context
// profiles, computed through the batched GRU kernel (bit-identical to the
// serial stage-(b) pass).
func (b *CLAP) Windows(c *flow.Connection) [][]float64 {
	return b.Det.StackedProfilesBatched(c)
}

// ScoreWindows implements BatchScorer: one batched autoencoder pass over
// the window stack. Element k is bit-identical to the unbatched
// reconstruction error of wins[k], so the series equals the serial
// Detector.WindowErrors bit for bit at any batch split.
func (b *CLAP) ScoreWindows(wins [][]float64) []float64 {
	return b.Det.AE.ErrorsBatch(wins)
}

// RecycleWindows implements backend.BatchRecycler: Windows results come
// from a pooled arena; scored windows go back to it.
func (b *CLAP) RecycleWindows(wins [][]float64) { b.Det.RecycleStacked(wins) }

// Save implements Backend (payload only; use the registry Save for the
// tagged on-disk format).
func (b *CLAP) Save(w io.Writer) error {
	if b.Det == nil {
		return fmt.Errorf("backend: saving untrained %s backend", b.tag)
	}
	return b.Det.Save(w)
}

// Detector exposes the underlying trained detector for CLAP-specific
// analyses (localization criteria, RNN accuracy, ablations).
func (b *CLAP) Detector() *core.Detector { return b.Det }
