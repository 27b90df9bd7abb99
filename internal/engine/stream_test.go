package engine

import (
	"testing"
	"time"

	"clap/internal/backend"
	"clap/internal/core"
	"clap/internal/flow"
)

// TestStreamOrderedEmission: results must be emitted strictly in
// submission order with scores identical to the serial path, even though
// scoring runs on a concurrent pool.
func TestStreamOrderedEmission(t *testing.T) {
	det := tinyDetector(t)
	conns := mixedCorpus(t, 20, 31)
	want := make([]core.Score, len(conns))
	for i, c := range conns {
		want[i] = det.Score(c)
	}

	for _, workers := range []int{1, 4, 8} {
		eng := New(Options{Workers: workers})
		var gotConns []*flow.Connection
		var gotScores []core.Score
		stream := NewStreamOf(eng, det.Score, func(c *flow.Connection, s core.Score) {
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
// everything.
func TestStreamBackpressure(t *testing.T) {
	det := tinyDetector(t)
	conns := genConns(10, 41)
	eng := New(Options{Workers: 2})
	emitted := 0
	stream := NewStreamOf(eng, det.Score, func(*flow.Connection, core.Score) { emitted++ }, StreamHooks{})
	const rounds = 30 // 300 submissions through an 8-deep window
	for r := 0; r < rounds; r++ {
		for _, c := range conns {
			stream.Submit(c)
		}
	}
	stream.Close()
	if want := rounds * len(conns); emitted != want {
		t.Fatalf("emitted %d, want %d", emitted, want)
	}
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
	s := NewStreamOf(eng,
		func(c *flow.Connection) float64 {
			// A measurable floor so Score latencies cannot round to zero.
			time.Sleep(200 * time.Microsecond)
			return det.Score(c).Adversarial
		},
		func(c *flow.Connection, _ float64) { emitted = append(emitted, c) },
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
	s := NewStreamOf(eng, det.Score, func(*flow.Connection, core.Score) {}, StreamHooks{})
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
	s := NewStreamOf(eng, func(c *flow.Connection) verdict {
		return verdict{key: c.Key.String(), score: b.ScoreConn(c)}
	}, func(_ *flow.Connection, v verdict) {
		emitted = append(emitted, v)
	}, StreamHooks{})
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
