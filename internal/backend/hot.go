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
// The handle also carries the model's operating threshold as part of the
// same atomically-published value: a finite number > 0, or 0 for none
// (score-only), which is where a fresh handle starts. SetThreshold
// installs it, SwapPair replaces model and threshold in one transaction,
// and CurrentPair reads both in one load. A scorer that pins its (model,
// threshold) through CurrentPair can therefore never judge a new model
// against an old threshold or vice versa — the atomicity
// auto-recalibration depends on.
//
// Generation counts successful model swaps, so operators can verify a
// reload actually took effect; threshold-only updates leave it unchanged.
type Hot struct {
	cur atomic.Pointer[hotModel]
}

// hotModel pairs a backend with the generation it was installed at and
// the operating threshold for exactly this model (0: none), so a single
// atomic load yields a consistent (model, threshold, generation) view.
type hotModel struct {
	b   Backend
	gen uint64
	th  float64
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
	h.cur.Store(&hotModel{b: b})
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
		next := &hotModel{b: b, gen: old.gen + 1, th: old.th}
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
		next := &hotModel{b: b, gen: old.gen + 1, th: th}
		if h.cur.CompareAndSwap(old, next) {
			return old.b, nil
		}
	}
}

// SetThreshold installs a new operating threshold for the current model
// without touching the model or its generation — the live /v1/threshold
// knob; 0 removes it (score-only). The (model, threshold) pair stays
// consistent under concurrent swaps: if a swap wins the race, the CAS
// retries against the new model.
func (h *Hot) SetThreshold(th float64) error {
	if err := validPairThreshold(th); err != nil {
		return err
	}
	for {
		old := h.cur.Load()
		next := &hotModel{b: old.b, gen: old.gen, th: th}
		if h.cur.CompareAndSwap(old, next) {
			return nil
		}
	}
}

// CurrentPair returns the live model with the operating threshold
// installed for it (0: none) in one consistent view.
func (h *Hot) CurrentPair() (b Backend, th float64) {
	cur := h.cur.Load()
	return cur.b, cur.th
}

// CurrentPairGen is CurrentPair plus the model's reload generation, all
// from the SAME single atomic load — the provenance read. A verdict
// record binding (model tag, generation, threshold) through it can never
// attribute a score to a generation that did not produce it, even with a
// reload racing the read; Generation() alone would be a second load that
// could land on the other side of a swap.
func (h *Hot) CurrentPairGen() (b Backend, th float64, gen uint64) {
	cur := h.cur.Load()
	return cur.b, cur.th, cur.gen
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

// validPairThreshold checks every threshold installed on a pair, whichever
// way it enters (pipeline options, /v1/threshold, reloads, restored
// snapshots): finite and >= 0, with 0 meaning none.
func validPairThreshold(th float64) error {
	if math.IsNaN(th) || math.IsInf(th, 0) || th < 0 {
		return fmt.Errorf("backend: threshold must be finite and >= 0 (0: none), got %v", th)
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
