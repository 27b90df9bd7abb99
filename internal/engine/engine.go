// Package engine is CLAP's sharded, worker-pool scoring engine. Every
// stage-(d) quantity — adversarial scores, window errors, localization,
// RNN accuracy — is independent across connections, so the engine fans
// connections out to a configurable worker pool and merges results
// deterministically: output slot i always holds connection i's result, and
// because the inference paths in internal/nn and internal/core are
// scratch-free (audited; regression-tested under -race), the numbers are
// bit-identical to the serial path at any worker count.
//
// The engine also parallelizes flow assembly: packets are partitioned into
// shards by an FNV-1a hash of the direction-insensitive connection 4-tuple,
// each shard is assembled independently, and the shard outputs are merged
// back into exact capture order (the order flow.Assemble would have
// produced serially).
//
// Every backend scores through one micro-batcher (batch.go), shared by
// streams (the pipeline's Run and serving), calibration, the evaluation
// suite and both cascade stages: it pools the windows of consecutive connections into batches of
// DefaultBatch, each one matrix-matrix inference pass — the bits of
// backend.WindowErrors, a fraction of the wall clock.
//
// The zero-config entry point is Default(); New lets callers pin worker
// and shard counts. An Engine holds no per-call state and is safe for
// concurrent use.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"clap/internal/backend"
	"clap/internal/core"
	"clap/internal/flow"
	"clap/internal/packet"
	"clap/internal/tcpstate"
)

// DefaultBatch is the micro-batch size: how many windows ride one batched
// inference pass. It is bench-tuned and a constant, not a setting: no
// benchmark workload runs another size. The pkts/s curve is flat from ~6
// windows up, and 24 keeps one batch's activations L2-resident and is a
// whole number of blocks on both MulMat kernels (three 8-lane AVX2 panels
// with no padded lanes, four 6-lane blocks on the portable one). Batches
// fill across connections in WindowErrorsBatched and in streams alike: a
// worker runs a part-filled batch only when it runs out of connections to
// add.
const DefaultBatch = 24

// minChunk is the smallest per-worker share of a ParallelFor that pays
// for its goroutine: below it, handing items across the pool costs more
// than scoring them in place (unbatched, clap at workers=8 ran 11.3k
// pkts/s against 11.7k serial on a 1-CPU box), so the engine shrinks the
// pool to keep at least minChunk items per worker and falls back to the
// serial loop when even two workers cannot be fed. Two is deliberately gentle:
// per-connection items are coarse (milliseconds each), so a small capture
// of heavy flows on a real multi-core box keeps most of its fan-out —
// only runs of two or three connections drop to the serial loop.
const minChunk = 2

// Options configures an Engine.
type Options struct {
	// Workers is the scoring goroutine count; <= 0 selects GOMAXPROCS.
	Workers int
	// Shards is the assembly shard count; <= 0 mirrors Workers.
	Shards int
}

// Engine schedules per-connection work across a worker pool.
type Engine struct {
	workers int
	shards  int
	batch   int // DefaultBatch; the package's tests set other sizes
}

// New builds an engine from options.
func New(o Options) *Engine {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	s := o.Shards
	if s <= 0 {
		s = w
	}
	return &Engine{workers: w, shards: s, batch: DefaultBatch}
}

// Default returns an engine sized to the machine.
func Default() *Engine { return New(Options{}) }

// Workers reports the configured worker count.
func (e *Engine) Workers() int { return e.workers }

// Shards reports the configured assembly shard count.
func (e *Engine) Shards() int { return e.shards }

// Batch reports the micro-batch size, DefaultBatch.
func (e *Engine) Batch() int { return e.batch }

// ParallelFor runs fn(i) for every i in [0, n) across the worker pool. Work
// is handed out through an atomic cursor, so callers writing fn results
// into slot i of a pre-sized slice get deterministic output regardless of
// scheduling. fn must be safe to call concurrently.
//
// Small inputs do not fan out: the pool is shrunk so every worker gets at
// least minChunk items, dropping to the plain serial loop when even two
// workers cannot be fed — an explicit -workers flag never pessimizes a
// small run. Results are identical either way; only scheduling changes.
func (e *Engine) ParallelFor(n int, fn func(i int)) {
	e.parallelFor(n, minChunk, fn)
}

func (e *Engine) parallelFor(n, minPer int, fn func(i int)) {
	var cursor atomic.Int64
	e.spread(n/minPer, func() {
		for i := int(cursor.Add(1)) - 1; i < n; i = int(cursor.Add(1)) - 1 {
			fn(i)
		}
	})
}

// spread runs work on min(workers, most) goroutines and waits for them,
// or runs it once on the caller when that is one or fewer. work claims its
// items from a cursor it shares with its other calls.
func (e *Engine) spread(most int, work func()) {
	w := min(e.workers, most)
	if w <= 1 {
		work()
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// WindowErrorsBatched computes each connection's per-window anomaly series
// with any backend, in input order; the series plus the backend's
// Summarize is a full scoring pass. A Hot handle is pinned once, so one
// model scores the whole corpus. Each pool worker claims connections in
// order from a shared cursor and scores them through its own
// micro-batcher, so windows pool ACROSS connections into full batches and
// each worker runs one part-filled batch at the end. Results equal
// backend.WindowErrors bit for bit at any worker, shard or batch size.
func (e *Engine) WindowErrorsBatched(b backend.Backend, conns []*flow.Connection) [][]float64 {
	b = backend.Live(b)
	out := make([][]float64, len(conns))
	var next atomic.Int64
	stats := new(batchStats)
	e.spread(len(conns)/minChunk, func() {
		s := newScorer(e.batch, stats, func(i int, _ *flow.Connection, o Outcome) { out[i] = o.Errs })
		s.use(b)
		for i := int(next.Add(1)) - 1; i < len(conns); i = int(next.Add(1)) - 1 {
			s.add(i, conns[i])
		}
		s.flush()
	})
	return out
}

// ScoresBatched returns each connection's scalar adversarial score with
// any trained backend, in input order, through the micro-batched window
// path; the Backend contract pins Summarize(WindowErrors(b, c)) ==
// ScoreConn(c) bit for bit, so scores equal ScoreConn at any batch size.
func (e *Engine) ScoresBatched(b backend.Backend, conns []*flow.Connection) []float64 {
	b = backend.Live(b)
	errsAll := e.WindowErrorsBatched(b, conns)
	out := make([]float64, len(conns))
	for i, errs := range errsAll {
		out[i], _ = b.Summarize(errs)
	}
	return out
}

// RNNAccuracy evaluates stage (a) across the pool: per-connection class
// hit/total counts are computed in parallel and summed in input order.
func (e *Engine) RNNAccuracy(det *core.Detector, conns []*flow.Connection) (hits, totals [tcpstate.NumClasses]int) {
	perHits := make([][tcpstate.NumClasses]int, len(conns))
	perTotals := make([][tcpstate.NumClasses]int, len(conns))
	e.ParallelFor(len(conns), func(i int) {
		perHits[i], perTotals[i] = det.RNNAccuracyConn(conns[i])
	})
	for i := range perHits {
		for c := 0; c < tcpstate.NumClasses; c++ {
			hits[c] += perHits[i][c]
			totals[c] += perTotals[i][c]
		}
	}
	return hits, totals
}

// FNV-1a, inlined so per-packet shard hashing does not allocate a hasher.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

type endpointKey struct {
	ip   [4]byte
	port uint16
}

func (a endpointKey) less(b endpointKey) bool {
	for i := 0; i < 4; i++ {
		if a.ip[i] != b.ip[i] {
			return a.ip[i] < b.ip[i]
		}
	}
	return a.port < b.port
}

// shardOf hashes a packet's 4-tuple into [0, shards). The two endpoints are
// canonically ordered first so both directions of a connection — and
// therefore every packet flow.Assemble would group together — land in the
// same shard.
func shardOf(p *packet.Packet, shards int) int {
	a := endpointKey{ip: p.IP.SrcIP, port: p.TCP.SrcPort}
	b := endpointKey{ip: p.IP.DstIP, port: p.TCP.DstPort}
	if b.less(a) {
		a, b = b, a
	}
	var buf [12]byte
	copy(buf[0:4], a.ip[:])
	buf[4] = byte(a.port >> 8)
	buf[5] = byte(a.port)
	copy(buf[6:10], b.ip[:])
	buf[10] = byte(b.port >> 8)
	buf[11] = byte(b.port)
	h := uint64(fnvOffset64)
	for _, c := range buf {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return int(h % uint64(shards))
}

// Assemble groups a capture-ordered packet stream into connections like
// flow.Assemble, but sharded: packets are partitioned by connection-key
// hash, shards assemble concurrently, and the merged output is restored to
// exact serial order (connections ordered by their first packet's capture
// position). The result is element-wise identical to flow.Assemble(pkts)
// because assembly state never crosses 4-tuples and a 4-tuple never crosses
// shards.
func (e *Engine) Assemble(pkts []*packet.Packet) []*flow.Connection {
	shards := e.shards
	if shards <= 1 || len(pkts) < 2*shards {
		return flow.Assemble(pkts)
	}
	parts := make([][]*packet.Packet, shards)
	for _, p := range pkts {
		s := shardOf(p, shards)
		parts[s] = append(parts[s], p)
	}
	assembled := make([][]*flow.Connection, shards)
	// A shard is a large unit of work: no small-n serial fallback.
	e.parallelFor(shards, 1, func(i int) { assembled[i] = flow.Assemble(parts[i]) })

	// Merge back to capture order without indexing every packet: map only
	// each connection's first packet (#connections entries, not #packets),
	// then walk the stream once, emitting connections as their first packet
	// appears. The slice value keeps the merge deterministic even in the
	// pathological case of one packet pointer opening connections in
	// several shards.
	nConns := 0
	for _, cs := range assembled {
		nConns += len(cs)
	}
	byFirst := make(map[*packet.Packet][]*flow.Connection, nConns)
	for _, cs := range assembled {
		for _, c := range cs {
			byFirst[c.Packets[0]] = append(byFirst[c.Packets[0]], c)
		}
	}
	out := make([]*flow.Connection, 0, nConns)
	for _, p := range pkts {
		if cs, ok := byFirst[p]; ok {
			out = append(out, cs...)
			delete(byFirst, p)
		}
	}
	return out
}
