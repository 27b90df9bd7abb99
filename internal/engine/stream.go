package engine

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"clap/internal/backend"
	"clap/internal/flow"
)

// StreamOf is the engine's online-deployment mode (Figure 3), generalized
// over the per-connection result type: connections are submitted as they
// close, scored by the worker pool through the engine's micro-batcher, and
// emitted strictly in submission order — so a live monitor behind a DPI
// keeps deterministic, replayable alert logs even though scoring runs
// concurrently.
type StreamOf[T any] struct {
	jobs    chan *streamJob[T]
	pending chan *streamJob[T]
	wake    chan struct{} // a token when the job in waiting turns ready
	waiting atomic.Pointer[streamJob[T]]
	wg      sync.WaitGroup // the workers and the emitter
	hooks   StreamHooks
	stats   batchStats

	// The in-flight window (see Submit): Submit admits a connection while
	// fewer than maxConns connections or fewer than room packets are in
	// flight. The emitter releases a connection's share after its emit
	// and drops a token in freed, which a blocked Submit waits on.
	maxConns, room  int64
	inConns, inPkts atomic.Int64
	freed           chan struct{}

	// seq counts submissions. Submit is single-goroutine by contract and
	// the emitter reads each job's stamped copy, so a plain field works.
	seq uint64
	// ring is every job the stream has made, in the order Submit uses
	// them; next is the one it uses next, last used len(ring) submissions
	// ago. Only Submit touches them.
	ring []*streamJob[T]
	next int
}

// streamJob carries one connection through the stream. Jobs are reused
// in turn, and a connection bound's worth is made at once only when the
// window is deeper than it has ever been (see Submit).
type streamJob[T any] struct {
	c     *flow.Connection
	b     backend.Backend // the model pin chose
	r     T
	ready atomic.Bool // r is complete
	seq   uint64
	pkts  int64 // the connection's share of the window's packet room
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
	// Score is worker pickup → the connection's result is complete.
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

// maxPacketRoom caps a stream's packet room (see Submit), so a cascade
// with a tiny escalation budget cannot overflow the sum or open an
// unbounded window: 32 768 packets, about 12 MB of decoded traffic.
const maxPacketRoom = 1 << 15

// packetRoom is the in-flight packet room of a stream opened on model b:
// for a cascade, enough screened packets that each worker's stage-2 lane
// can fill one batch at the budgeted escalation rate,
// workers × span × ⌈batch / EscalateFPR⌉ capped at maxPacketRoom, since a
// connection of n packets yields at least n/span stage-2 windows; for any
// other model, none.
func packetRoom(b backend.Backend, workers, batch int) int64 {
	c, ok := b.(*backend.Cascade)
	if !ok {
		return 0
	}
	per := float64(c.WindowSpan()) * math.Ceil(float64(batch)/c.EscalateFPR())
	return int64(min(float64(workers)*per, maxPacketRoom))
}

// NewStreamOf starts a scoring stream producing results of type T. Each
// worker takes a submitted connection, then each one already queued — it
// never waits for more, and holds none it is not scoring — and for each
// calls pin, which picks the model the connection is judged by and starts
// its result, and adds it to the worker's micro-batcher. A connection
// pinned to another model (told apart by ==) than the one before it
// settles the batcher first, so a hot swap or another tenant's model never
// shares a batch; an empty queue runs the part-filled batch. finish
// completes each result as soon as its series is ready. pin and finish run
// on pool workers and must be safe for concurrent calls; emit runs on one
// goroutine, in submission order. open is the model the stream opens
// with: it sizes the in-flight window (see Submit) for the stream's
// lifetime, whatever pin later returns. The zero hooks measure nothing.
// Close the stream to drain and release the workers.
func NewStreamOf[T any](e *Engine, open backend.Backend,
	pin func(*flow.Connection) (backend.Backend, T),
	finish func(c *flow.Connection, b backend.Backend, r *T, o Outcome),
	emit func(*flow.Connection, T), hooks StreamHooks) *StreamOf[T] {
	s := &StreamOf[T]{
		hooks:    hooks,
		maxConns: int64(e.workers * (4 + e.batch)),
		room:     packetRoom(open, e.workers, e.batch),
		wake:     make(chan struct{}, 1),
		freed:    make(chan struct{}, 1),
	}
	// Every in-flight connection counts at least one packet, so the window
	// never holds more than max(maxConns, room) connections: with that
	// capacity neither queue blocks, and admission is the only bound.
	depth := max(s.maxConns, s.room)
	s.jobs = make(chan *streamJob[T], depth)
	s.pending = make(chan *streamJob[T], depth)
	observed := hooks.Observe != nil
	s.wg.Add(e.workers + 1)
	for w := 0; w < e.workers; w++ {
		go func() {
			defer s.wg.Done()
			sc := newScorer(e.batch, &s.stats, func(j *streamJob[T], c *flow.Connection, o Outcome) {
				finish(c, j.b, &j.r, o)
				if observed {
					j.scored = time.Now()
				}
				// The emitter publishes the job it waits for before it
				// checks ready again, so one of the two sees the other.
				j.ready.Store(true)
				if s.waiting.Load() == j {
					select {
					case s.wake <- struct{}{}:
					default: // the emitter has a token to wake on
					}
				}
			})
			for j := range s.jobs {
				for j != nil {
					if observed {
						j.started = time.Now()
					}
					j.b, j.r = pin(j.c)
					sc.use(j.b)
					sc.add(j, j.c)
					select {
					case j = <-s.jobs: // nil once the stream is closed
					default:
						j = nil
					}
				}
				sc.flush()
			}
		}()
	}
	go func() {
		defer s.wg.Done()
		var zero T
		for j := range s.pending {
			if !j.ready.Load() {
				s.waiting.Store(j)
				for !j.ready.Load() {
					<-s.wake
				}
				s.waiting.Store(nil)
			}
			// EmitWait is head-of-line wait only, measured before the
			// emit callback so a slow consumer does not inflate it.
			var emitAt time.Time
			if observed {
				emitAt = time.Now()
			}
			emit(j.c, j.r)
			c, pkts := j.c, j.pkts
			var st StreamStats
			if observed {
				st = StreamStats{
					Seq:       j.seq,
					QueueWait: j.started.Sub(j.submitted),
					Score:     j.scored.Sub(j.started),
					EmitWait:  emitAt.Sub(j.scored),
				}
			}
			// Drop what the job references and leave it: the release
			// below may admit the Submit that reuses it.
			j.c, j.b, j.r = nil, nil, zero
			j.ready.Store(false)
			s.inConns.Add(-1)
			s.inPkts.Add(-pkts)
			select {
			case s.freed <- struct{}{}:
			default: // a token is already waiting
			}
			if observed {
				hooks.Observe(c, st)
			}
		}
	}()
	return s
}

// Submit queues one connection for scoring. It blocks only while the
// in-flight window is full, which is when workers × (4 + batch size)
// connections and the stream's packet room are both taken. The
// connection bound keeps the pool busy and holds a batch of one-window
// connections per worker. The packet room, zero unless the stream opened
// on a cascade, lets a worker's stage-2 lane fill its batch: emission is
// in order, so a connection held there holds every later one in the
// window. At worst the window holds the connection bound's connections,
// plus the room's packets, plus one connection. Submit reuses the jobs
// emitted connections leave, so once the window has been as deep as it
// gets, the stream allocates nothing per connection: only the batcher's
// series and batch errors remain. Not safe for concurrent Submit calls
// from multiple goroutines; the submission order defines the emit order.
func (s *StreamOf[T]) Submit(c *flow.Connection) {
	for s.inConns.Load() >= s.maxConns && s.inPkts.Load() >= s.room {
		<-s.freed
	}
	s.seq++
	// In-flight connections are the latest submitted, so the job at next
	// is free unless every job is in flight; then a new chunk goes in at
	// next, and the jobs after it are reached len(ring) submissions after
	// their last use again.
	if s.inConns.Load() >= int64(len(s.ring)) {
		chunk := make([]streamJob[T], s.maxConns)
		ring := make([]*streamJob[T], 0, len(s.ring)+len(chunk))
		ring = append(ring, s.ring[:s.next]...)
		for i := range chunk {
			ring = append(ring, &chunk[i])
		}
		s.ring = append(ring, s.ring[s.next:]...)
	}
	j := s.ring[s.next]
	s.next = (s.next + 1) % len(s.ring)
	j.c, j.seq, j.pkts = c, s.seq, int64(max(len(c.Packets), 1))
	s.inConns.Add(1)
	s.inPkts.Add(j.pkts)
	if s.hooks.Observe != nil {
		j.submitted = time.Now()
	}
	s.pending <- j
	s.jobs <- j
}

// InFlight reports how many submitted connections have not yet been
// emitted — the stream's internal queue depth, surfaced to serving
// metrics. Safe to call concurrently with Submit and emit.
func (s *StreamOf[T]) InFlight() int { return int(s.inConns.Load()) }

// BatchFill reports the mean occupancy of the micro-batches the stream has
// run: 1 when every batch was full, 0 before any.
func (s *StreamOf[T]) BatchFill() float64 { return s.stats.fill() }

// Close drains the stream: it waits until every submitted connection has
// been scored and emitted, then stops the workers. The stream cannot be
// reused afterwards.
func (s *StreamOf[T]) Close() {
	close(s.jobs)
	close(s.pending)
	s.wg.Wait()
}
