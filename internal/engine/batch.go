package engine

import (
	"fmt"
	"sync/atomic"

	"clap/internal/backend"
	"clap/internal/flow"
)

// Outcome is one connection's result from the micro-batcher: its series
// (bit-identical to backend.WindowErrors); for a cascade, whether it
// escalated and its stage-1 margin; and the id and occupancy of the
// micro-batch that scored its last window (zero for a connection without
// windows).
type Outcome struct {
	Errs         []float64
	Escalated    bool
	Stage1Margin float64
	BatchID      uint64
	BatchFill    float64
}

// batchStats numbers the micro-batches of the batchers that share it and
// accounts their occupancy.
type batchStats struct {
	windows, slots, seq atomic.Uint64
}

// fill reports the mean occupancy of the batches run so far: 1 when every
// batch was full, 0 before any.
func (s *batchStats) fill() float64 {
	return float64(s.windows.Load()) / float64(max(s.slots.Load(), 1))
}

// lane is the micro-batcher for one model. Connections are added in order
// and their windows fill a batch of size windows; a batch is scored the
// moment it is full; and a connection's outcome goes to done, its pooled
// windows recycled, as soon as its last window is scored. So at most one
// batch plus one connection's windows are resident. A lane runs serially
// on its caller and is reused, so it allocates only the series it hands
// out and each batch's errors. A batch split only splits the window list,
// and the backend.BatchScorer contract pins every split to the same bits.
// K is the caller's handle on a connection.
type lane[K any] struct {
	size  int
	stats *batchStats
	done  func(k K, c *flow.Connection, o Outcome)

	bs  backend.BatchScorer
	rec backend.BatchRecycler // nil: the windows are not pooled

	batch [][]float64  // the filling batch
	open  []pending[K] // connections with windows in flight, oldest first
}

// pending is a connection whose windows are not all scored yet.
type pending[K any] struct {
	k      K
	c      *flow.Connection
	o      Outcome // Errs fills in as batches are scored
	wins   [][]float64
	scored int
}

// add queues a connection's windows, scoring every batch they fill; o
// carries what the caller knows of the connection to done.
func (l *lane[K]) add(k K, c *flow.Connection, o Outcome) {
	o.BatchID, o.BatchFill = 0, 0
	wins := l.bs.Windows(c)
	o.Errs = make([]float64, len(wins))
	if len(wins) == 0 {
		l.done(k, c, o)
		return
	}
	if l.batch == nil {
		// Made once, at full size: a batch holds at most size windows,
		// and each connection in open but the one being added has one.
		l.batch = make([][]float64, 0, l.size)
		l.open = make([]pending[K], 0, l.size+1)
	}
	l.open = append(l.open, pending[K]{k: k, c: c, o: o, wins: wins})
	for _, w := range wins {
		l.batch = append(l.batch, w)
		if len(l.batch) == l.size {
			l.flush()
		}
	}
}

// flush runs the filling batch, full or not, and settles the connections
// it completes.
func (l *lane[K]) flush() {
	if len(l.batch) == 0 {
		return
	}
	errs := l.bs.ScoreWindows(l.batch)
	l.stats.windows.Add(uint64(len(l.batch)))
	l.stats.slots.Add(uint64(l.size))
	id, fill := l.stats.seq.Add(1), float64(len(l.batch))/float64(l.size)
	clear(l.batch)
	l.batch = l.batch[:0]
	// The batch holds the open connections' next windows in order, so its
	// errors go to them in order; all but the last it reaches complete.
	n := 0
	for k := 0; k < len(errs); {
		p := &l.open[n]
		m := copy(p.o.Errs[p.scored:], errs[k:])
		p.scored += m
		k += m
		if p.scored == len(p.o.Errs) {
			n++
		}
	}
	for i := range l.open[:n] {
		p := &l.open[i]
		if l.rec != nil {
			l.rec.RecycleWindows(p.wins)
		}
		p.o.BatchID, p.o.BatchFill = id, fill
		l.done(p.k, p.c, p.o)
	}
	rest := copy(l.open, l.open[n:])
	clear(l.open[rest:])
	l.open = l.open[:rest]
}

// scorer is the engine's one micro-batch core: WindowErrorsBatched's
// workers, stream workers, and both stages of a cascade score through
// it. For a plain model it is one lane; for a cascade (backend.Cascade)
// two chained: stage-1 batches, Route as each connection's stage-1 series
// completes, the escalated connections into stage-2 batches. Outcomes go
// to out as connections complete, in no promised order.
type scorer[K any] struct {
	b               backend.Backend
	route           *backend.Cascade
	screen, verdict lane[K]
	out             func(k K, c *flow.Connection, o Outcome)
}

func newScorer[K any](size int, stats *batchStats, out func(k K, c *flow.Connection, o Outcome)) *scorer[K] {
	s := &scorer[K]{out: out}
	s.screen = lane[K]{size: size, stats: stats, done: s.screened}
	s.verdict = lane[K]{size: size, stats: stats, done: out}
	return s
}

// use points the scorer at the model the next connections are scored
// with (a Hot handle's current one). Switching models first settles every
// connection added under the old one, so two models never share a batch.
func (s *scorer[K]) use(b backend.Backend) {
	if b = backend.Live(b); b == s.b {
		return
	}
	s.flush()
	s.b = b
	if s.route, _ = b.(*backend.Cascade); s.route != nil {
		s1, s2 := s.route.Stages()
		s.screen.use(s1)
		s.verdict.use(s2)
		return
	}
	s.screen.use(b)
}

// use points the lane at a leaf model. Every leaf scores through the
// batched pair; NewCascade holds a cascade's stages to the same rule.
func (l *lane[K]) use(b backend.Backend) {
	bs, ok := b.(backend.BatchScorer)
	if !ok {
		panic(fmt.Sprintf("engine: backend %q has no batched pair: a leaf backend must implement backend.BatchScorer", b.Tag()))
	}
	l.bs = bs
	l.rec, _ = b.(backend.BatchRecycler)
}

// add scores c under the caller's handle k.
func (s *scorer[K]) add(k K, c *flow.Connection) { s.screen.add(k, c, Outcome{}) }

// flush settles every connection added so far.
func (s *scorer[K]) flush() {
	s.screen.flush()
	s.verdict.flush() // holds only what the screen's flush escalated
}

// screened takes a first-lane outcome: final for a plain model, routed
// for a cascade.
func (s *scorer[K]) screened(k K, c *flow.Connection, o Outcome) {
	if s.route != nil {
		if o.Escalated, o.Stage1Margin = s.route.Route(o.Errs); o.Escalated {
			s.verdict.add(k, c, o)
			return
		}
	}
	s.out(k, c, o)
}
