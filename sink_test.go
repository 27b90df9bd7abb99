package clap

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"clap/internal/flow"
)

// failingWriter errors after allowing n successful writes.
type failingWriter struct {
	n   int
	err error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	w.n--
	return len(p), nil
}

// sinkConn fabricates a connection with a fixed key for deterministic
// sink output (no packets: the goldens avoid window expansion).
func sinkConn(lastOctet byte, attack string) *Connection {
	return &Connection{
		Key: flow.Key{
			Client: flow.Endpoint{IP: [4]byte{10, 0, 0, lastOctet}, Port: 1000 + uint16(lastOctet)},
			Server: flow.Endpoint{IP: [4]byte{192, 0, 2, 1}, Port: 443},
		},
		AttackName: attack,
	}
}

// sinkFixture is a tiny deterministic result set: two flagged, one clean.
func sinkFixture() ([]Result, *RunSummary) {
	results := []Result{
		{Conn: sinkConn(1, ""), Score: 0.25, PeakWindow: 2, Flagged: true},
		{Conn: sinkConn(2, "Low TTL (Max)"), Score: 0.75, PeakWindow: 0, Flagged: true},
		{Conn: sinkConn(3, ""), Score: 0.05, PeakWindow: 1},
	}
	sum := &RunSummary{Results: results, Threshold: 0.2, Flagged: 2, WindowSpan: 3}
	return results, sum
}

func runSink(t *testing.T, s Sink, results []Result, sum *RunSummary) error {
	t.Helper()
	for _, r := range results {
		if err := s.Emit(r); err != nil {
			return err
		}
	}
	return s.Finish(sum)
}

// TestTextReportGolden pins the text renderer's exact bytes in both
// verbose and non-verbose mode, for flagged and score-only runs.
func TestTextReportGolden(t *testing.T) {
	results, sum := sinkFixture()

	t.Run("flagged-verbose", func(t *testing.T) {
		var buf bytes.Buffer
		if err := runSink(t, NewTextReport(&buf, true), results, sum); err != nil {
			t.Fatal(err)
		}
		want := "" +
			"10.0.0.1:1001 > 192.0.2.1:443                    score=0.250000\n" +
			"10.0.0.2:1002 > 192.0.2.1:443                    score=0.750000\n" +
			"10.0.0.3:1003 > 192.0.2.1:443                    score=0.050000\n" +
			"2/3 connections flagged at threshold 0.200000\n" +
			"\n10.0.0.1:1001 > 192.0.2.1:443  score=0.250000 peak-window=2\n" +
			"\n10.0.0.2:1002 > 192.0.2.1:443  score=0.750000 peak-window=0\n"
		if buf.String() != want {
			t.Fatalf("verbose flagged report diverged:\n got: %q\nwant: %q", buf.String(), want)
		}
	})

	t.Run("flagged-quiet", func(t *testing.T) {
		var buf bytes.Buffer
		if err := runSink(t, NewTextReport(&buf, false), results, sum); err != nil {
			t.Fatal(err)
		}
		want := "" +
			"2/3 connections flagged at threshold 0.200000\n" +
			"\n10.0.0.1:1001 > 192.0.2.1:443  score=0.250000 peak-window=2\n" +
			"\n10.0.0.2:1002 > 192.0.2.1:443  score=0.750000 peak-window=0\n"
		if buf.String() != want {
			t.Fatalf("quiet flagged report diverged:\n got: %q\nwant: %q", buf.String(), want)
		}
	})

	t.Run("score-only", func(t *testing.T) {
		scoreOnly := &RunSummary{Results: results, Threshold: 0}
		var buf bytes.Buffer
		if err := runSink(t, NewTextReport(&buf, false), results, scoreOnly); err != nil {
			t.Fatal(err)
		}
		want := "" +
			"top connections by adversarial score:\n" +
			" 1. 10.0.0.2:1002 > 192.0.2.1:443                    score=0.750000\n" +
			" 2. 10.0.0.1:1001 > 192.0.2.1:443                    score=0.250000\n" +
			" 3. 10.0.0.3:1003 > 192.0.2.1:443                    score=0.050000\n"
		if buf.String() != want {
			t.Fatalf("score-only report diverged:\n got: %q\nwant: %q", buf.String(), want)
		}
	})
}

// TestSinksSurfaceWriterErrors: every sink propagates its writer's error
// instead of swallowing it.
func TestSinksSurfaceWriterErrors(t *testing.T) {
	results, sum := sinkFixture()
	boom := errors.New("disk full")
	cases := []struct {
		name string
		mk   func(w *failingWriter) Sink
		ok   int // writes to allow before failing
	}{
		{"text-immediate", func(w *failingWriter) Sink { return NewTextReport(w, true) }, 0},
		{"text-mid-report", func(w *failingWriter) Sink { return NewTextReport(w, true) }, 2},
		{"jsonlines-immediate", func(w *failingWriter) Sink { return NewJSONLines(w) }, 0},
		{"jsonlines-at-summary", func(w *failingWriter) Sink { return NewJSONLines(w) }, 3},
		{"dedup-alertlog", func(w *failingWriter) Sink { return NewDedupAlertLog(w, 0, 0) }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runSink(t, tc.mk(&failingWriter{n: tc.ok, err: boom}), results, sum)
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the writer's error", err)
			}
		})
	}
}

// countSink counts its Emits; with fail set, its Emit number at fails,
// and it counts the Emits that still reach it afterwards.
type countSink struct {
	emits, at, late int
	fail            error
}

func (s *countSink) Emit(Result) error {
	s.emits++
	switch {
	case s.fail == nil || s.emits <= s.at:
		return nil
	case s.emits == s.at+1:
		return s.fail
	}
	s.late++
	return nil
}

func (s *countSink) Finish(*RunSummary) error { return nil }

// TestSinkErrorsFailRun: a failing sink aborts Pipeline.Run with the
// writer's error. Over a corpus several in-flight windows long, Run stops
// submitting at the error, drains what is in flight without emitting it,
// and leaves no goroutine behind.
func TestSinkErrorsFailRun(t *testing.T) {
	bk := pipelineBackend(t)
	p, err := NewPipeline(WithBackend(bk), WithThreshold(1e-12))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("pipe closed")
	_, err = p.Run(TrafficGen(4, 2), NewDedupAlertLog(&failingWriter{err: boom}, 0, 0))
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "sink") {
		t.Fatalf("Run err = %v, want a wrapped sink error", err)
	}
	_, err = p.Run(TrafficGen(4, 2), NewJSONLines(&failingWriter{err: boom}))
	if !errors.Is(err, boom) {
		t.Fatalf("Run err = %v, want the JSON sink's error", err)
	}

	const workers = 2
	window := runWindow(workers)
	conns := GenerateBenign(4*window, 23)
	cb := &countingBackend{CLAPBackend: bk.(*CLAPBackend)}
	p, err = NewPipeline(WithBackend(cb), WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	before, failing, after := &countSink{}, &countSink{at: 3, fail: boom}, &countSink{}
	goroutines := runtime.NumGoroutine()
	_, err = p.Run(Conns(conns...), before, failing, after)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "sink") {
		t.Fatalf("Run err = %v, want a wrapped sink error", err)
	}
	if failing.late != 0 {
		t.Fatalf("the failing sink received %d Emits after its error", failing.late)
	}
	if before.emits != failing.at+1 || after.emits != failing.at {
		t.Fatalf("sinks before and after the failing one got %d and %d Emits, want %d and %d",
			before.emits, after.emits, failing.at+1, failing.at)
	}
	// When the failing Emit returns, the window holds the connections from
	// it on; the one Submit then waiting for room is the last.
	if n := cb.conns.Load(); n > int64(failing.at+1+window) {
		t.Fatalf("Run submitted %d of %d connections, more than %d: it kept submitting after the error",
			n, len(conns), failing.at+1+window)
	}
	// The stream's goroutines have returned from Close; wait for them to
	// be gone.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed Run, %d before", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDedupAlertLog: duplicate keys inside the window are suppressed,
// the rate cap bounds output per second, and Finish reports the count.
func TestDedupAlertLog(t *testing.T) {
	clock := time.Unix(100, 0)
	mk := func(w *bytes.Buffer, window time.Duration, maxPerSec int) *dedupAlertLog {
		s := NewDedupAlertLog(w, window, maxPerSec).(*dedupAlertLog)
		s.now = func() time.Time { return clock }
		return s
	}
	flaggedResult := func(octet byte, score float64) Result {
		return Result{Conn: sinkConn(octet, ""), Score: score, Flagged: true}
	}

	t.Run("dedup-window", func(t *testing.T) {
		var buf bytes.Buffer
		s := mk(&buf, 10*time.Second, 0)
		s.Emit(flaggedResult(1, 0.5))
		s.Emit(flaggedResult(1, 0.6)) // same key, inside window: suppressed
		clock = clock.Add(11 * time.Second)
		s.Emit(flaggedResult(1, 0.7)) // window expired: written
		s.Emit(flaggedResult(2, 0.8)) // different key: written
		s.Finish(&RunSummary{})
		out := buf.String()
		if got := strings.Count(out, "ALERT"); got != 3 {
			t.Fatalf("wrote %d alerts, want 3:\n%s", got, out)
		}
		if !strings.Contains(out, "1 alerts suppressed") {
			t.Fatalf("missing suppression summary:\n%s", out)
		}
	})

	t.Run("rate-cap", func(t *testing.T) {
		var buf bytes.Buffer
		s := mk(&buf, 0, 2)
		for octet := byte(1); octet <= 5; octet++ {
			s.Emit(flaggedResult(octet, 0.5))
		}
		clock = clock.Add(time.Second)
		s.Emit(flaggedResult(6, 0.5)) // new second: allowed again
		s.Finish(&RunSummary{})
		out := buf.String()
		if got := strings.Count(out, "ALERT"); got != 3 {
			t.Fatalf("wrote %d alerts, want 3 (2 in first second + 1 in next):\n%s", got, out)
		}
		if !strings.Contains(out, "3 alerts suppressed") {
			t.Fatalf("missing suppression summary:\n%s", out)
		}
	})

	t.Run("unflagged-ignored", func(t *testing.T) {
		var buf bytes.Buffer
		s := mk(&buf, time.Second, 1)
		s.Emit(Result{Conn: sinkConn(9, ""), Score: 0.9})
		s.Finish(&RunSummary{})
		if buf.Len() != 0 {
			t.Fatalf("unflagged result produced output: %q", buf.String())
		}
	})
}

// TestDedupAlertLogAmortizedPrune: once the seen map exceeds the size
// trigger with live (unexpired) keys, sustained distinct-key alerting
// pays at most one full expiry scan per dedup window — not one per Emit,
// which made the alert path quadratic under attack bursts.
func TestDedupAlertLogAmortizedPrune(t *testing.T) {
	clock := time.Unix(100, 0)
	var buf bytes.Buffer
	s := NewDedupAlertLog(&buf, time.Hour, 0).(*dedupAlertLog)
	s.now = func() time.Time { return clock }
	conn := func(i int) *Connection {
		return &Connection{Key: flow.Key{
			Client: flow.Endpoint{IP: [4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}, Port: 1},
			Server: flow.Endpoint{IP: [4]byte{192, 0, 2, 1}, Port: 443},
		}}
	}
	// Grow the map well past the 4096 trigger with live keys, one distinct
	// key per Emit, advancing the clock slightly so no key ever expires.
	const total = 6000
	for i := 0; i < total; i++ {
		clock = clock.Add(time.Millisecond)
		s.Emit(Result{Conn: conn(i), Flagged: true})
	}
	if len(s.seen) != total {
		t.Fatalf("seen holds %d keys, want %d live", len(s.seen), total)
	}
	// ~1900 emits ran past the trigger inside one window: amortization
	// allows at most one scan (the old code scanned on every one).
	if s.pruneScans > 1 {
		t.Fatalf("%d full scans during one window, want <= 1", s.pruneScans)
	}
	// After the window elapses the next alert may scan again — and, with
	// every key now stale, must actually shrink the map.
	clock = clock.Add(2 * time.Hour)
	scansBefore := s.pruneScans
	s.Emit(Result{Conn: conn(total), Flagged: true})
	if s.pruneScans != scansBefore+1 {
		t.Fatalf("scan did not run after window elapsed (scans=%d)", s.pruneScans)
	}
	if len(s.seen) != 1 {
		t.Fatalf("stale keys survived the post-window scan: %d left, want 1", len(s.seen))
	}
	if got := strings.Count(buf.String(), "ALERT"); got != total+1 {
		t.Fatalf("wrote %d alerts, want %d (all keys distinct)", got, total+1)
	}
}
