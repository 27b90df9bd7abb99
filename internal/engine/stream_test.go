package engine

import (
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"clap/internal/backend"
	"clap/internal/core"
	"clap/internal/flow"
)

// scoreStream opens a stream that scores with b and reduces each series
// with det, emitting core.Scores — the serial Score path's values.
func scoreStream(eng *Engine, b backend.Backend, det *core.Detector, emit func(*flow.Connection, core.Score), hooks StreamHooks) *StreamOf[core.Score] {
	return NewStreamOf(eng, b,
		func(*flow.Connection) (backend.Backend, core.Score) { return b, core.Score{} },
		func(_ *flow.Connection, _ backend.Backend, s *core.Score, o Outcome) {
			*s = det.ScoreFromErrors(o.Errs)
		},
		emit, hooks)
}

// TestStreamOrderedEmission: results must be emitted strictly in
// submission order with scores identical to the serial path, even though
// scoring runs on a concurrent pool.
func TestStreamOrderedEmission(t *testing.T) {
	det := tinyDetector(t)
	b := backend.FromDetector(det)
	conns := mixedCorpus(t, 20, 31)
	want := make([]core.Score, len(conns))
	for i, c := range conns {
		want[i] = det.Score(c)
	}

	for _, workers := range []int{1, 4, 8} {
		eng := New(Options{Workers: workers})
		var gotConns []*flow.Connection
		var gotScores []core.Score
		stream := scoreStream(eng, b, det, func(c *flow.Connection, s core.Score) {
			gotConns = append(gotConns, c)
			gotScores = append(gotScores, s)
		}, StreamHooks{})
		for _, c := range conns {
			stream.Submit(c)
		}
		stream.Close()

		if len(gotConns) != len(conns) {
			t.Fatalf("workers=%d: emitted %d of %d connections", workers, len(gotConns), len(conns))
		}
		for i := range conns {
			if gotConns[i] != conns[i] {
				t.Fatalf("workers=%d: emission order broken at %d", workers, i)
			}
			sameScore(t, "Stream", i, gotScores[i], want[i])
		}
	}
}

// TestStreamBackpressure submits far more connections than the in-flight
// window; Submit must block rather than drop, and Close must drain
// everything. A plain model's window is exactly workers × (4 + batch)
// connections: 56 at two workers and the default batch.
func TestStreamBackpressure(t *testing.T) {
	det := tinyDetector(t)
	b := backend.FromDetector(det)
	conns := genConns(10, 41)
	eng := New(Options{Workers: 2})
	emitted := 0
	stream := scoreStream(eng, b, det, func(*flow.Connection, core.Score) { emitted++ }, StreamHooks{})
	const rounds = 30 // 300 submissions through a 56-deep window
	for r := 0; r < rounds; r++ {
		for _, c := range conns {
			stream.Submit(c)
		}
	}
	stream.Close()
	if want := rounds * len(conns); emitted != want {
		t.Fatalf("emitted %d, want %d", emitted, want)
	}

	var many []*flow.Connection
	for r := 0; r < 10; r++ {
		many = append(many, conns...)
	}
	if held := windowHeld(t, eng, b, many); held != 56 {
		t.Fatalf("a plain model's window held %d connections, want 56", held)
	}
}

// windowHeld submits conns, from a goroutine of its own, to a stream
// opened on open whose emitter blocks on its first connection, and
// reports how many Submits returned before the next one blocked: the
// in-flight window, since nothing leaves it until an emit. Then it lets
// the emitter go and checks that every connection comes out.
func windowHeld(t *testing.T, eng *Engine, open backend.Backend, conns []*flow.Connection) int {
	t.Helper()
	release := make(chan struct{})
	emitted := 0
	s := NewStreamOf(eng, open,
		func(*flow.Connection) (backend.Backend, struct{}) { return open, struct{}{} },
		func(*flow.Connection, backend.Backend, *struct{}, Outcome) {},
		func(*flow.Connection, struct{}) {
			<-release
			emitted++
		}, StreamHooks{})
	returned := make(chan struct{}, len(conns))
	go func() {
		for _, c := range conns {
			s.Submit(c)
			returned <- struct{}{}
		}
		close(returned)
	}()
	// Admission waits on emits alone, so once the window is full no Submit
	// returns however long the quiet lasts.
	held := 0
	for quiet := false; !quiet; {
		select {
		case _, ok := <-returned:
			if ok {
				held++
			}
			quiet = !ok // every connection was admitted
		case <-time.After(200 * time.Millisecond):
			quiet = true
		}
	}
	if got := s.InFlight(); got != held {
		t.Errorf("InFlight = %d with %d connections admitted and none emitted", got, held)
	}
	close(release)
	for range returned {
	}
	s.Close()
	if emitted != len(conns) {
		t.Fatalf("emitted %d of %d connections", emitted, len(conns))
	}
	return held
}

// testCascade is a cascade of the tiny test detectors: the gate-free
// screen (slowed by delay per connection, when delay > 0) and the clap
// detector, escalating a connection when its screen score reaches the
// given quantile of scores over conns.
func testCascade(t *testing.T, fpr float64, delay time.Duration, conns []*flow.Connection, quantile float64) *backend.Cascade {
	t.Helper()
	var screen backend.Backend = gateFreeBackend(t)
	if delay > 0 {
		screen = slowWindows{gateFreeBackend(t), delay}
	}
	casc, err := backend.NewCascade(screen, backend.FromDetector(tinyDetector(t)), fpr)
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, len(conns))
	for i, c := range conns {
		scores[i] = screen.ScoreConn(c)
	}
	sort.Float64s(scores)
	if err := casc.SetEscalation(scores[int(quantile*float64(len(scores)))]); err != nil {
		t.Fatal(err)
	}
	return casc
}

// slowWindows is a batched backend whose window production takes at
// least d per connection.
type slowWindows struct {
	*backend.CLAP
	d time.Duration
}

func (s slowWindows) Windows(c *flow.Connection) [][]float64 {
	time.Sleep(s.d)
	return s.CLAP.Windows(c)
}

// shortConns cuts a generated corpus into connections of 3 to 7 packets,
// live-short's flows (one to five windows each at span 3), and shuffles
// them, so one long connection's pieces do not all arrive together.
func shortConns(n int, seed int64) []*flow.Connection {
	rng := rand.New(rand.NewSource(seed))
	var out []*flow.Connection
	for _, c := range genConns(n, seed) {
		for i := 0; i+3 <= c.Len(); {
			j := min(i+3+rng.Intn(5), c.Len())
			out = append(out, &flow.Connection{Key: c.Key, Packets: c.Packets[i:j], Dirs: c.Dirs[i:j]})
			i = j
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestStreamCascadeStage2BatchesFill: a stream on a cascade, fed short
// connections faster than it scores them, runs every stage-2 batch full
// but each worker's last, run at the drain. The packet room holds the
// screened connections a worker's stage-2 lane needs to fill its batch
// behind the one it holds; with the connection bound alone (24 here)
// the window holds about five escalated connections, Submit blocks
// behind the oldest, the queue runs dry and the lanes run part-filled.
// Emission order and series equal WindowErrorsBatched bit for bit.
func TestStreamCascadeStage2BatchesFill(t *testing.T) {
	const workers, batch = 2, 8
	conns := shortConns(150, 71)
	// Escalate a fifth of the traffic against a 5 % budget, and slow the
	// screen so that the producer stays ahead of the workers.
	casc := testCascade(t, 0.05, 100*time.Microsecond, conns, 0.8)
	eng := newBatched(workers, batch)
	want := eng.WindowErrorsBatched(casc, conns)

	var mu sync.Mutex
	fill := map[uint64]float64{} // stage-2 batch id → occupancy
	var got [][]float64
	var order []*flow.Connection
	s := NewStreamOf(eng, casc,
		func(*flow.Connection) (backend.Backend, []float64) { return casc, nil },
		func(_ *flow.Connection, _ backend.Backend, errs *[]float64, o Outcome) {
			if o.Escalated {
				mu.Lock()
				fill[o.BatchID] = o.BatchFill
				mu.Unlock()
			}
			*errs = o.Errs
		},
		func(c *flow.Connection, errs []float64) {
			order = append(order, c)
			got = append(got, errs)
		}, StreamHooks{})
	for _, c := range conns {
		s.Submit(c)
	}
	s.Close()

	for i, c := range conns {
		if order[i] != c {
			t.Fatalf("emission order broken at %d", i)
		}
	}
	assertSeriesEqual(t, "cascade stream", got, want)
	part := 0
	for _, f := range fill {
		if f < 1 {
			part++
		}
	}
	// Every stage-2 batch completes a connection (no connection spans
	// more than five windows), so fill sees every one.
	if len(fill) < 10 {
		t.Fatalf("only %d stage-2 batches ran; the corpus does not exercise the lane", len(fill))
	}
	if part > workers {
		t.Fatalf("%d of %d stage-2 batches ran part-filled; want at most %d, each worker's last", part, len(fill), workers)
	}
}

// TestStreamCascadeLongConnectionsKeepConnectionBound: a cascade stream
// fed connections that each hold more packets than its packet room
// admits one only while fewer than workers × (4 + batch) are in flight —
// the room never adds a connection past the bound.
func TestStreamCascadeLongConnectionsKeepConnectionBound(t *testing.T) {
	const workers, batch = 2, 1
	var long []*flow.Connection
	for _, c := range genConns(60, 43) {
		if c.Len() > 12 {
			long = append(long, c)
		}
	}
	casc := testCascade(t, 0.9, 0, long, 0.5)
	eng := newBatched(workers, batch)
	if room := packetRoom(casc, workers, batch); room != 12 { // 2 × 3 × ⌈1 / 0.9⌉
		t.Fatalf("packet room %d, want 12", room)
	}
	if held, bound := windowHeld(t, eng, casc, long), workers*(4+batch); held != bound {
		t.Fatalf("window held %d connections above the room, want the connection bound %d", held, bound)
	}
}

// TestStreamPacketRoomCapped: the packet room is
// workers × span × ⌈batch / EscalateFPR⌉ for a cascade, zero for a plain
// model, and capped at maxPacketRoom when a valid but tiny escalation
// budget would overflow it; a stream opens and drains on the capped room.
func TestStreamPacketRoomCapped(t *testing.T) {
	s1, s2 := gateFreeBackend(t), backend.FromDetector(tinyDetector(t))
	def, err := backend.NewCascade(s1, s2, backend.DefaultEscalateFPR)
	if err != nil {
		t.Fatal(err)
	}
	if room := packetRoom(def, 2, DefaultBatch); room != 2880 { // 2 × 3 × 480
		t.Fatalf("default cascade room %d, want 2880", room)
	}
	if room := packetRoom(s2, 2, DefaultBatch); room != 0 {
		t.Fatalf("plain model room %d, want 0", room)
	}
	tiny, err := backend.NewCascade(s1, s2, 1e-300)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 1 << 20} {
		if room := packetRoom(tiny, workers, 1<<20); room != maxPacketRoom {
			t.Fatalf("workers=%d: room %d for a 1e-300 budget, want the cap %d", workers, room, maxPacketRoom)
		}
	}
	eng := New(Options{Workers: 2})
	n := 0
	s := NewStreamOf(eng, tiny,
		func(*flow.Connection) (backend.Backend, struct{}) { return tiny, struct{}{} },
		func(*flow.Connection, backend.Backend, *struct{}, Outcome) {},
		func(*flow.Connection, struct{}) { n++ }, StreamHooks{})
	if s.room != maxPacketRoom || cap(s.jobs) != maxPacketRoom {
		t.Fatalf("stream room %d, queue %d; want both %d", s.room, cap(s.jobs), maxPacketRoom)
	}
	conns := genConns(8, 5)
	for _, c := range conns {
		s.Submit(c)
	}
	s.Close()
	if n != len(conns) {
		t.Fatalf("emitted %d of %d", n, len(conns))
	}
}

// slowBackend scores through the CLAP backend's batched pair, producing
// each connection's windows no faster than d.
type slowBackend struct {
	*backend.CLAP
	d time.Duration
}

func (s slowBackend) Windows(c *flow.Connection) [][]float64 {
	time.Sleep(s.d)
	return s.CLAP.Windows(c)
}

// TestStreamHooksObserveStages: the instrumented stream reports one
// StreamStats per connection, in emission order, with sane latencies —
// the feed for clap-serve's per-stage histograms.
func TestStreamHooksObserveStages(t *testing.T) {
	det := tinyDetector(t)
	conns := genConns(12, 17)
	eng := New(Options{Workers: 4})

	var emitted []*flow.Connection
	var observed []*flow.Connection
	var stats []StreamStats
	// A measurable floor so Score latencies cannot round to zero.
	b := slowBackend{backend.FromDetector(det), 200 * time.Microsecond}
	s := scoreStream(eng, b, det,
		func(c *flow.Connection, _ core.Score) { emitted = append(emitted, c) },
		StreamHooks{Observe: func(c *flow.Connection, st StreamStats) {
			observed = append(observed, c)
			stats = append(stats, st)
		}})
	for _, c := range conns {
		s.Submit(c)
	}
	s.Close()

	if len(observed) != len(conns) || len(emitted) != len(conns) {
		t.Fatalf("observed %d / emitted %d of %d connections", len(observed), len(emitted), len(conns))
	}
	for i := range conns {
		if observed[i] != conns[i] {
			t.Fatalf("observation order broken at %d", i)
		}
		st := stats[i]
		if st.Score < 200*time.Microsecond {
			t.Errorf("conn %d: score latency %v below the sleep floor", i, st.Score)
		}
		if st.QueueWait < 0 || st.EmitWait < 0 {
			t.Errorf("conn %d: negative stage latency %+v", i, st)
		}
	}
}

// TestStreamUnhookedSkipsClock: without an Observe hook the stream leaves
// job timestamps untouched (the hot path stays clock-free).
func TestStreamUnhookedSkipsClock(t *testing.T) {
	det := tinyDetector(t)
	eng := New(Options{Workers: 2})
	s := scoreStream(eng, backend.FromDetector(det), det, func(*flow.Connection, core.Score) {}, StreamHooks{})
	for _, c := range genConns(4, 3) {
		s.Submit(c)
	}
	if s.InFlight() < 0 {
		t.Fatal("InFlight went negative")
	}
	s.Close()
	if got := s.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after Close, want 0", got)
	}
}

// TestStreamOfGenericResultType drives the generalized stream with a
// non-Score result type (a backend-style scalar verdict): emission must
// stay in submission order regardless of scoring concurrency.
func TestStreamOfGenericResultType(t *testing.T) {
	det := tinyDetector(t)
	b := backend.FromDetector(det)
	conns := genConns(20, 31)

	type verdict struct {
		key   string
		score float64
	}
	var emitted []verdict
	eng := New(Options{Workers: 4})
	s := NewStreamOf(eng, b,
		func(c *flow.Connection) (backend.Backend, verdict) { return b, verdict{key: c.Key.String()} },
		func(_ *flow.Connection, b backend.Backend, v *verdict, o Outcome) { v.score, _ = b.Summarize(o.Errs) },
		func(_ *flow.Connection, v verdict) { emitted = append(emitted, v) },
		StreamHooks{})
	for _, c := range conns {
		s.Submit(c)
	}
	s.Close()

	if len(emitted) != len(conns) {
		t.Fatalf("emitted %d results for %d submissions", len(emitted), len(conns))
	}
	for i, c := range conns {
		if emitted[i].key != c.Key.String() {
			t.Fatalf("slot %d emitted %s, want %s (order broken)", i, emitted[i].key, c.Key)
		}
		if want := b.ScoreConn(c); emitted[i].score != want {
			t.Fatalf("slot %d score %v != serial %v", i, emitted[i].score, want)
		}
	}
}

// gatedBackend holds every Windows call — the moment a worker starts on a
// connection — until the test lets it through, and records how long each
// connection was held.
type gatedBackend struct {
	*backend.CLAP
	entered chan *flow.Connection
	pass    chan struct{}

	mu   sync.Mutex
	hold map[*flow.Connection]time.Duration
}

func (g *gatedBackend) Windows(c *flow.Connection) [][]float64 {
	at := time.Now()
	g.entered <- c
	<-g.pass
	g.mu.Lock()
	g.hold[c] = time.Since(at)
	g.mu.Unlock()
	return g.CLAP.Windows(c)
}

// TestStreamWorkersShareQueuedWork pins the stream's scheduling at 2 and 4
// workers with a scorer that blocks until released, one call at a time:
// while connections are queued, every worker holds work at once — a
// worker that took queued connections into a greedy group would leave the
// others idle. Emission stays in submission order, scores equal the
// serial path, and each connection's StreamStats are its own.
func TestStreamWorkersShareQueuedWork(t *testing.T) {
	det := tinyDetector(t)
	for _, workers := range []int{2, 4} {
		// Long connections fill the batch; short ones ride a part-filled
		// one into the next connection's windows.
		conns := genConns(4*workers, int64(60+workers))
		g := &gatedBackend{
			CLAP:    backend.FromDetector(det),
			entered: make(chan *flow.Connection, len(conns)),
			pass:    make(chan struct{}),
			hold:    map[*flow.Connection]time.Duration{},
		}
		eng := newBatched(workers, 8)
		var emitted []*flow.Connection
		var scores []core.Score
		var stats []StreamStats
		s := scoreStream(eng, g, det,
			func(c *flow.Connection, sc core.Score) {
				emitted = append(emitted, c)
				scores = append(scores, sc)
			},
			StreamHooks{Observe: func(_ *flow.Connection, st StreamStats) { stats = append(stats, st) }})
		for _, c := range conns { // fewer than the in-flight window: none blocks
			s.Submit(c)
		}
		started, released := 0, 0
		for started < len(conns) {
			for started-released < workers && started < len(conns) {
				select {
				case <-g.entered:
					started++
				case <-time.After(5 * time.Second):
					t.Fatalf("workers=%d: %d of %d workers hold work while %d connections wait",
						workers, started-released, workers, len(conns)-started)
				}
			}
			if started < len(conns) {
				g.pass <- struct{}{}
				released++
			}
		}
		close(g.pass)
		s.Close()

		if len(emitted) != len(conns) || len(stats) != len(conns) {
			t.Fatalf("workers=%d: emitted %d, observed %d of %d", workers, len(emitted), len(stats), len(conns))
		}
		for i, c := range conns {
			if emitted[i] != c {
				t.Fatalf("workers=%d: emission order broken at %d", workers, i)
			}
			sameScore(t, "gated stream", i, scores[i], det.Score(c))
			st := stats[i]
			if st.Seq != uint64(i+1) {
				t.Fatalf("workers=%d: conn %d carries Seq %d", workers, i, st.Seq)
			}
			if st.QueueWait < 0 || st.EmitWait < 0 || st.Score < g.hold[c] {
				t.Fatalf("workers=%d: conn %d stats %+v do not cover its own %v hold", workers, i, st, g.hold[c])
			}
		}
	}
}

// TestStreamBatchesOneModelAtATime: connections pinned to two models whose
// windows differ in width (the clap detector and the gate-free one) ride
// the same workers' batchers, interleaved; each is scored wholly by its
// own model, bit for bit, because a batch never mixes the two.
func TestStreamBatchesOneModelAtATime(t *testing.T) {
	clapB := backend.FromDetector(tinyDetector(t))
	freeB := gateFreeBackend(t)
	conns := mixedCorpus(t, 24, 19)
	model := map[*flow.Connection]backend.Backend{}
	want := make([][]float64, len(conns))
	for i, c := range conns {
		model[c] = clapB
		if i%3 == 0 {
			model[c] = freeB
		}
		want[i] = backend.WindowErrors(model[c], c)
	}
	for _, workers := range []int{1, 4} {
		var got [][]float64
		s := NewStreamOf(New(Options{Workers: workers}), clapB,
			func(c *flow.Connection) (backend.Backend, []float64) { return model[c], nil },
			func(_ *flow.Connection, _ backend.Backend, errs *[]float64, o Outcome) { *errs = o.Errs },
			func(_ *flow.Connection, errs []float64) { got = append(got, errs) },
			StreamHooks{})
		for _, c := range conns {
			s.Submit(c)
		}
		s.Close()
		assertSeriesEqual(t, "two models, workers="+strconv.Itoa(workers), got, want)
	}
}
