// Package backend defines the detection contract every detector family in
// this repository implements, plus the named registry that makes backends
// swappable behind one interface. The paper compares CLAP against two
// baselines: a temporal-context-agnostic CLAP, registered here, and
// Kitsune, which only the evaluation suite runs. Deploying a model — or a
// future fourth system — through the same pipeline requires exactly what
// this package provides: a uniform Train/Score/Save surface,
// and a tagged persistence header so a saved model knows which decoder
// reads it back.
//
// Registering a new backend is a one-file change: implement Backend and
// BatchScorer, call Register in an init func, and every CLI, the Pipeline
// facade and the evaluation suite can drive it by tag.
package backend

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"

	"clap/internal/flow"
)

// Logf is an optional training progress sink (nil-safe at the call sites
// that accept it; implementations receive a non-nil function).
type Logf func(format string, args ...any)

// Backend is the detection contract: an anomaly detector trained on benign
// traffic only that scores TCP connections. A trained backend must be safe
// for concurrent scoring calls — the parallel engine fans connections out
// across a worker pool and relies on it.
type Backend interface {
	// Tag returns the registry tag the backend persists under.
	Tag() string
	// Describe returns a one-line human description of the model.
	Describe() string
	// WindowSpan reports how many consecutive packets one entry of the
	// window series covers (CLAP: the stacking length; per-packet
	// systems: 1).
	WindowSpan() int
	// Trained reports whether the backend holds a fitted model — the
	// scoring methods may only be called when it does.
	Trained() bool
	// Train fits the backend on benign connections only. logf is never nil.
	Train(benign []*flow.Connection, logf Logf) error
	// ScoreConn returns the scalar adversarial score of one connection:
	// Summarize of its WindowErrors series.
	ScoreConn(c *flow.Connection) float64
	// Summarize reduces a WindowErrors series to the connection score and
	// the peak window index (-1 when the series is empty). For every
	// backend, Summarize(WindowErrors(b, c)) equals ScoreConn(c) bit for
	// bit — callers holding the series never re-run inference to score.
	Summarize(errs []float64) (score float64, peak int)
	// Save writes the trained model payload to w. The registry's Save
	// frames it with the tagged header; use that for anything on disk.
	Save(w io.Writer) error
}

// BatchScorer is how every leaf backend computes its window series, in
// two halves: producing a connection's model-input windows, and scoring a
// batch of windows in one amortized pass. A caller can so pool windows
// from many connections into micro-batches and run each batch as one
// matrix-matrix inference pass instead of len(batch) matrix-vector
// passes. A connection's series is ScoreWindows(Windows(c)) (see
// WindowErrors), and it must not depend on the batch split: scoring
// windows [0:k] and [k:n] separately concatenates, bit for bit, to
// scoring [0:n]. Both methods must be safe for concurrent use on a
// trained backend, like the rest of the scoring surface. The composites,
// Cascade and Hot, do not implement it; they route to leaves that do.
type BatchScorer interface {
	// Windows returns the connection's model-input windows — one row per
	// entry of the window series, in the same order.
	Windows(c *flow.Connection) [][]float64
	// ScoreWindows computes the per-window anomaly values of a batch;
	// element k depends on wins[k] alone.
	ScoreWindows(wins [][]float64) []float64
}

// BatchRecycler is an optional refinement of BatchScorer: the backend's
// Windows buffers come from an internal pool, and the caller hands them
// back once their scores are in. Recycling is what keeps steady-state
// batched scoring allocation-free — at ~3KB per window the garbage
// collector is otherwise a measurable slice of the hot path. A recycled
// result must never be read again; callers that retain windows simply
// skip the call and let the GC take them.
type BatchRecycler interface {
	// RecycleWindows releases one Windows() result back to the pool.
	RecycleWindows(wins [][]float64)
}

// WindowErrors returns the per-window anomaly series of one connection
// under b — what ScoreConn summarises and the localization substrate
// (Figure 6's series). It is the only per-connection scoring path: a Hot
// handle scores with its current model, a Cascade screens with its first
// stage and routes (WindowErrorsRouted), and a leaf runs its batched pair
// as one batch, recycling the windows. The engine's micro-batcher
// computes the same series for many connections at once.
func WindowErrors(b Backend, c *flow.Connection) []float64 {
	switch m := Live(b).(type) {
	case *Cascade:
		errs, _, _ := m.WindowErrorsRouted(c)
		return errs
	case BatchScorer:
		wins := m.Windows(c)
		errs := m.ScoreWindows(wins)
		if rec, ok := m.(BatchRecycler); ok {
			rec.RecycleWindows(wins)
		}
		return errs
	default:
		panic(Scorable(b))
	}
}

// Scorable reports whether b can score connections: a Cascade (whose
// stages NewCascade holds to the batched pair), a leaf implementing
// BatchScorer, or a Hot handle whose current model is one of those.
// Constructors that accept a Backend check it up front, so a model
// without the pair is refused there rather than panicking on a scoring
// goroutine.
func Scorable(b Backend) error {
	switch m := Live(b).(type) {
	case nil:
		return fmt.Errorf("backend: no model to score with")
	case *Cascade, BatchScorer:
		return nil
	default:
		return fmt.Errorf("backend: %s scores no windows: a leaf backend must implement BatchScorer", m.Tag())
	}
}

// Live returns the model a scoring call on b runs: a Hot handle's current
// model, and b itself otherwise.
func Live(b Backend) Backend {
	if h, ok := b.(*Hot); ok {
		return h.Current()
	}
	return b
}

// Factory creates and decodes one backend family.
type Factory struct {
	// New returns an untrained backend with default configuration.
	New func() Backend
	// Load decodes a model payload written by Backend.Save.
	Load func(r io.Reader) (Backend, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register adds a backend family under tag. It panics on duplicate tags —
// registration is an init-time, programmer-error condition.
func Register(tag string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[tag]; dup {
		panic("backend: duplicate tag " + tag)
	}
	if f.New == nil || f.Load == nil {
		panic("backend: factory for " + tag + " missing New or Load")
	}
	registry[tag] = f
}

// Tags lists the registered backend tags, sorted.
func Tags() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for t := range registry {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// New instantiates an untrained backend by tag.
func New(tag string) (Backend, error) {
	regMu.RLock()
	f, ok := registry[tag]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("backend: unknown tag %q (registered: %v)", tag, Tags())
	}
	return f.New(), nil
}

// The persistence header: magic, a format version, then the length-prefixed
// tag. Everything after the header is the backend's own payload. Models
// saved before the header existed (plain core.Detector gob streams) carry
// no magic; Load detects that and falls back to the CLAP decoder, so old
// model files keep working.
var magic = [8]byte{'C', 'L', 'A', 'P', 'B', 'K', 'N', 'D'}

const headerVersion = 1

// Save writes b to w with the tagged header, so Load can dispatch to the
// right decoder.
func Save(w io.Writer, b Backend) error {
	tag := b.Tag()
	if len(tag) == 0 || len(tag) > 255 {
		return fmt.Errorf("backend: tag %q not encodable", tag)
	}
	hdr := make([]byte, 0, len(magic)+2+len(tag))
	hdr = append(hdr, magic[:]...)
	hdr = append(hdr, headerVersion, byte(len(tag)))
	hdr = append(hdr, tag...)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("backend: writing header: %w", err)
	}
	return b.Save(w)
}

// Load reads a model written by Save and dispatches on its tag. Streams
// without the tagged header load through the CLAP decoder (the legacy
// on-disk format).
func Load(r io.Reader) (Backend, error) {
	head := make([]byte, len(magic))
	n, err := io.ReadFull(r, head)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		// Too short for a header; let the legacy decoder report the detail.
		return loadLegacy(io.MultiReader(bytes.NewReader(head[:n]), r))
	}
	if err != nil {
		return nil, fmt.Errorf("backend: reading header: %w", err)
	}
	if !bytes.Equal(head, magic[:]) {
		return loadLegacy(io.MultiReader(bytes.NewReader(head), r))
	}
	var meta [2]byte
	if _, err := io.ReadFull(r, meta[:]); err != nil {
		return nil, fmt.Errorf("backend: truncated header: %w", err)
	}
	if meta[0] != headerVersion {
		return nil, fmt.Errorf("backend: unsupported model format version %d", meta[0])
	}
	tag := make([]byte, meta[1])
	if _, err := io.ReadFull(r, tag); err != nil {
		return nil, fmt.Errorf("backend: truncated tag: %w", err)
	}
	regMu.RLock()
	f, ok := registry[string(tag)]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("backend: model tagged with unknown backend %q (registered: %v)", tag, Tags())
	}
	b, err := f.Load(r)
	if err != nil {
		return nil, fmt.Errorf("backend: loading %q model: %w", tag, err)
	}
	return b, nil
}

// loadLegacy decodes a header-less stream as a plain CLAP detector.
func loadLegacy(r io.Reader) (Backend, error) {
	regMu.RLock()
	f, ok := registry[TagCLAP]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("backend: CLAP decoder not registered")
	}
	b, err := f.Load(r)
	if err != nil {
		return nil, fmt.Errorf("backend: loading untagged model as CLAP: %w", err)
	}
	return b, nil
}
