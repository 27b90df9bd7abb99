package engine

import (
	"sync"
	"time"

	"clap/internal/flow"
)

// StreamOf is the engine's online-deployment mode (Figure 3), generalized
// over the per-connection result type: connections are submitted as they
// close, scored by the worker pool, and emitted strictly in submission
// order — so a live monitor behind a DPI keeps deterministic, replayable
// alert logs even though scoring runs concurrently. T is whatever the
// score function produces: a core.Score for CLAP, a scalar for Kitsune, or
// a pipeline Result for the backend-agnostic facade.
type StreamOf[T any] struct {
	jobs    chan *streamJob[T]
	pending chan *streamJob[T]
	done    chan struct{}
	wg      sync.WaitGroup
	hooks   StreamHooks

	// seq counts submissions. Submit is single-goroutine by contract and
	// the emitter reads each job's stamped copy, so a plain field works.
	seq uint64
}

type streamJob[T any] struct {
	c   *flow.Connection
	out chan T
	seq uint64
	// Stage timestamps, populated only when the stream has an Observe
	// hook so the unobserved hot path never touches the clock.
	submitted time.Time
	started   time.Time
	scored    time.Time
}

// StreamStats carries one connection's measured stage latencies through a
// stream: how long it waited for a worker, how long scoring took, and how
// long the finished result waited behind earlier submissions before the
// ordered emit — the per-stage numbers a serving layer turns into latency
// histograms.
type StreamStats struct {
	// Seq is the connection's submission sequence number (1-based) — the
	// global scoring order a provenance record carries, and the merge key
	// for cross-tenant trace views.
	Seq uint64
	// QueueWait is Submit → worker pickup.
	QueueWait time.Duration
	// Score is the scoring function's runtime.
	Score time.Duration
	// EmitWait is scoring completion → ordered emit (head-of-line wait).
	EmitWait time.Duration
}

// StreamHooks instruments a stream. All fields are optional.
type StreamHooks struct {
	// Observe is called once per connection, after its emit, on the
	// stream's single emitter goroutine (so implementations need no
	// locking against themselves).
	Observe func(*flow.Connection, StreamStats)
}

// NewStreamOf starts a scoring stream producing results of type T. score
// runs on pool workers and must be safe for concurrent calls (any trained
// Backend's scoring methods are); emit is invoked on a single goroutine,
// one connection at a time, in submission order. hooks instruments the
// per-stage latencies; the zero value measures nothing. Close the stream
// to drain and release the workers.
func NewStreamOf[T any](e *Engine, score func(*flow.Connection) T, emit func(*flow.Connection, T), hooks StreamHooks) *StreamOf[T] {
	depth := 4 * e.workers
	s := &StreamOf[T]{
		jobs:    make(chan *streamJob[T], depth),
		pending: make(chan *streamJob[T], depth),
		done:    make(chan struct{}),
		hooks:   hooks,
	}
	observed := hooks.Observe != nil
	s.wg.Add(e.workers)
	for w := 0; w < e.workers; w++ {
		go func() {
			defer s.wg.Done()
			for j := range s.jobs {
				if observed {
					j.started = time.Now()
				}
				r := score(j.c)
				if observed {
					j.scored = time.Now()
				}
				j.out <- r
			}
		}()
	}
	go func() {
		for j := range s.pending {
			r := <-j.out
			// EmitWait is head-of-line wait only, measured before the
			// emit callback so a slow consumer does not inflate it.
			var emitAt time.Time
			if observed {
				emitAt = time.Now()
			}
			emit(j.c, r)
			if observed {
				hooks.Observe(j.c, StreamStats{
					Seq:       j.seq,
					QueueWait: j.started.Sub(j.submitted),
					Score:     j.scored.Sub(j.started),
					EmitWait:  emitAt.Sub(j.scored),
				})
			}
		}
		close(s.done)
	}()
	return s
}

// Submit queues one connection for scoring. It blocks only when the
// in-flight window (4× workers) is full. Not safe for concurrent Submit
// calls from multiple goroutines; the submission order defines the emit
// order.
func (s *StreamOf[T]) Submit(c *flow.Connection) {
	s.seq++
	j := &streamJob[T]{c: c, out: make(chan T, 1), seq: s.seq}
	if s.hooks.Observe != nil {
		j.submitted = time.Now()
	}
	s.pending <- j
	s.jobs <- j
}

// InFlight reports how many submitted connections have not yet been
// emitted — the stream's internal queue depth, surfaced to serving
// metrics. Safe to call concurrently with Submit and emit.
func (s *StreamOf[T]) InFlight() int { return len(s.pending) }

// Close drains the stream: it waits until every submitted connection has
// been scored and emitted, then stops the workers. The stream cannot be
// reused afterwards.
func (s *StreamOf[T]) Close() {
	close(s.jobs)
	close(s.pending)
	<-s.done
	s.wg.Wait()
}
