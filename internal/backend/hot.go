package backend

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"clap/internal/flow"
)

// Hot is a reload-safe backend handle: it implements Backend by delegating
// every call to the current underlying model, held behind an atomic
// pointer, so a long-running serving process can swap models in place
// while scoring goroutines keep running. A swap is atomic — a scoring call
// sees either the old model or the new one, never a mixture — and callers
// that need one consistent model across several calls (score a connection,
// then summarize its window errors) pin a snapshot with Current first.
//
// The handle can also carry the model's operating threshold as part of the
// same atomically-published value: SetThreshold installs it, SwapPair
// replaces model and threshold in one transaction, and CurrentPair reads
// both in one load. A scorer that pins its (model, threshold) through
// CurrentPair can therefore never judge a new model against an old
// threshold or vice versa — the atomicity auto-recalibration depends on.
//
// Generation counts successful model swaps, so operators can verify a
// reload actually took effect; threshold-only updates leave it unchanged.
type Hot struct {
	cur atomic.Pointer[hotModel]
}

// hotModel pairs a backend with the generation it was installed at — and,
// once a threshold is installed, the operating threshold calibrated for
// exactly this model — so a single atomic load yields a consistent
// (model, threshold, generation) view.
type hotModel struct {
	b     Backend
	gen   uint64
	th    float64
	hasTh bool
}

// NewHot wraps a trained, scorable backend in a reload-safe handle.
func NewHot(b Backend) (*Hot, error) {
	if b == nil {
		return nil, errors.New("backend: hot handle needs a backend")
	}
	if !b.Trained() {
		return nil, errors.New("backend: hot handle refuses an untrained backend")
	}
	if err := Scorable(b); err != nil {
		return nil, err
	}
	h := &Hot{}
	h.cur.Store(&hotModel{b: b, gen: 0})
	return h, nil
}

// Current returns the live model. Callers making multiple related calls
// for one connection must make them all on this snapshot.
func (h *Hot) Current() Backend { return h.cur.Load().b }

// Generation reports how many swaps the handle has absorbed.
func (h *Hot) Generation() uint64 { return h.cur.Load().gen }

// Swap atomically replaces the live model and returns the previous one.
// Untrained, nil or unscorable (see Scorable) replacements are rejected
// without disturbing the current model, so a failed reload can never take
// the service down. The (model, generation) pair is published in one CAS,
// so concurrent swaps always leave the newest generation holding the
// model that won. An
// installed threshold is carried over unchanged — the legacy
// reload-then-recalibrate flow; use SwapPair to replace both at once.
func (h *Hot) Swap(b Backend) (prev Backend, err error) {
	if err := swappable(b); err != nil {
		return nil, err
	}
	for {
		old := h.cur.Load()
		next := &hotModel{b: b, gen: old.gen + 1, th: old.th, hasTh: old.hasTh}
		if h.cur.CompareAndSwap(old, next) {
			return old.b, nil
		}
	}
}

// SwapPair atomically replaces the live model AND its operating threshold
// in one published value — the auto-recalibration transaction. No scoring
// call that pins its pair through CurrentPair can ever observe the new
// model with the old threshold or the old model with the new one.
func (h *Hot) SwapPair(b Backend, th float64) (prev Backend, err error) {
	if err := swappable(b); err != nil {
		return nil, err
	}
	if err := validPairThreshold(th); err != nil {
		return nil, err
	}
	for {
		old := h.cur.Load()
		next := &hotModel{b: b, gen: old.gen + 1, th: th, hasTh: true}
		if h.cur.CompareAndSwap(old, next) {
			return old.b, nil
		}
	}
}

// SetThreshold installs a new operating threshold for the current model
// without touching the model or its generation — the live /v1/threshold
// knob. The (model, threshold) pair stays consistent under concurrent
// swaps: if a swap wins the race, the CAS retries against the new model.
func (h *Hot) SetThreshold(th float64) error {
	if err := validPairThreshold(th); err != nil {
		return err
	}
	for {
		old := h.cur.Load()
		next := &hotModel{b: old.b, gen: old.gen, th: th, hasTh: true}
		if h.cur.CompareAndSwap(old, next) {
			return nil
		}
	}
}

// CurrentPair returns the live model with the operating threshold
// installed for it in one consistent view; ok is false while no threshold
// has been installed (score-only serving, or a plain Backend lifecycle
// that never calls SetThreshold/SwapPair).
func (h *Hot) CurrentPair() (b Backend, th float64, ok bool) {
	cur := h.cur.Load()
	return cur.b, cur.th, cur.hasTh
}

// CurrentPairGen is CurrentPair plus the model's reload generation, all
// from the SAME single atomic load — the provenance read. A verdict
// record binding (model tag, generation, threshold) through it can never
// attribute a score to a generation that did not produce it, even with a
// reload racing the read; Generation() alone would be a second load that
// could land on the other side of a swap. b and gen are valid even when
// ok is false (no threshold installed).
func (h *Hot) CurrentPairGen() (b Backend, th float64, gen uint64, ok bool) {
	cur := h.cur.Load()
	return cur.b, cur.th, cur.gen, cur.hasTh
}

func swappable(b Backend) error {
	if b == nil {
		return errors.New("backend: hot swap needs a backend")
	}
	if !b.Trained() {
		return errors.New("backend: hot swap refuses an untrained backend")
	}
	return Scorable(b)
}

// validPairThreshold mirrors the facade's threshold gate: finite and
// >= 0, with 0 meaning score-only.
func validPairThreshold(th float64) error {
	if math.IsNaN(th) || math.IsInf(th, 0) || th < 0 {
		return fmt.Errorf("backend: hot threshold %v must be finite and >= 0", th)
	}
	return nil
}

// The Backend interface, delegated to the live model. One method call
// resolves the model once, so each individual call is internally
// consistent under concurrent swaps.

func (h *Hot) Tag() string      { return h.Current().Tag() }
func (h *Hot) Describe() string { return h.Current().Describe() }
func (h *Hot) WindowSpan() int  { return h.Current().WindowSpan() }
func (h *Hot) Trained() bool    { return h.Current().Trained() }
func (h *Hot) Train(benign []*flow.Connection, logf Logf) error {
	return h.Current().Train(benign, logf)
}
func (h *Hot) ScoreConn(c *flow.Connection) float64    { return h.Current().ScoreConn(c) }
func (h *Hot) Summarize(errs []float64) (float64, int) { return h.Current().Summarize(errs) }
func (h *Hot) Save(w io.Writer) error                  { return h.Current().Save(w) }
