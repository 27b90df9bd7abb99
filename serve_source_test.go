package clap

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clap/internal/flow"
	"clap/internal/packet"
	"clap/internal/pcapio"
)

// fastLive keeps live-source tests snappy.
var fastLive = LiveConfig{Poll: 5 * time.Millisecond, IdleFlush: 50 * time.Millisecond, MaxPackets: 512}

// collectServe drains a ServeSource until it returns, collecting
// everything it delivers.
func collectServe(t *testing.T, src ServeSource, ctx context.Context) (conns []*Connection, skipped int) {
	t.Helper()
	ch := make(chan *Connection, 1024)
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		skipped, err = src.Stream(ctx, func(c *Connection) { ch <- c })
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("source did not finish")
	}
	if err != nil {
		t.Fatalf("source %s: %v", src.Name(), err)
	}
	close(ch)
	for c := range ch {
		conns = append(conns, c)
	}
	return conns, skipped
}

// TestTailPCAPFollowsGrowingFile appends a capture to a file in stages —
// including the file not existing at open time and a record split across
// writes — and the tail source must deliver every connection.
func TestTailPCAPFollowsGrowingFile(t *testing.T) {
	want := GenerateBenign(6, 41)
	var whole []byte
	{
		f, err := os.CreateTemp(t.TempDir(), "whole-*.pcap")
		if err != nil {
			t.Fatal(err)
		}
		if err := WritePCAP(f, want); err != nil {
			t.Fatal(err)
		}
		f.Close()
		whole, err = os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
	}

	path := filepath.Join(t.TempDir(), "grow.pcap")
	src := TailPCAP(path, fastLive)
	ctx, cancel := context.WithCancel(context.Background())

	got := make(chan *Connection, 64)
	done := make(chan error, 1)
	go func() {
		_, err := src.Stream(ctx, func(c *Connection) { got <- c })
		done <- err
	}()

	// Write the capture in uneven chunks with pauses, splitting records
	// mid-byte; the tailer must ride through every partial state.
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(whole); {
		n := 700
		if off+n > len(whole) {
			n = len(whole) - off
		}
		if _, err := f.Write(whole[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
		time.Sleep(10 * time.Millisecond)
	}
	f.Close()

	// Collect until every connection arrived (idle flush emits the tail).
	var conns []*Connection
	deadline := time.After(20 * time.Second)
	for len(conns) < len(want) {
		select {
		case c := <-got:
			conns = append(conns, c)
		case <-deadline:
			t.Fatalf("tail delivered %d connections, want %d", len(conns), len(want))
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("tail stream: %v", err)
	}

	wantPkts := 0
	for _, c := range want {
		wantPkts += c.Len()
	}
	gotPkts := 0
	for _, c := range conns {
		gotPkts += c.Len()
	}
	if gotPkts != wantPkts {
		t.Fatalf("tail delivered %d packets, capture had %d", gotPkts, wantPkts)
	}
}

// TestFollowPCAPFromPipe streams a capture through an io.Pipe — the
// stdin/named-pipe deployment — and must deliver the same connections the
// batch reader assembles.
func TestFollowPCAPFromPipe(t *testing.T) {
	want := GenerateBenign(8, 17)
	pr, pw := io.Pipe()
	go func() {
		WritePCAP(pw, want)
		pw.Close()
	}()

	src := FollowPCAP("pipe", pr, fastLive)
	conns, skipped := collectServe(t, src, context.Background())
	if skipped != 0 {
		t.Errorf("clean capture reported %d skipped", skipped)
	}
	if len(conns) != len(want) {
		t.Fatalf("pipe delivered %d connections, want %d", len(conns), len(want))
	}
	for i := range want {
		if conns[i].Key != want[i].Key {
			t.Fatalf("conn %d: key %v != %v", i, conns[i].Key, want[i].Key)
		}
	}
}

// TestFollowPCAPCountsSkipped: undecodable records surface in the skip
// count instead of vanishing.
func TestFollowPCAPCountsSkipped(t *testing.T) {
	conns := GenerateBenign(3, 5)
	pr, pw := io.Pipe()
	go func() {
		w := pcapio.NewWriter(pw, pcapio.LinkTypeRaw)
		for _, p := range flow.Flatten(conns) {
			w.WritePacket(p)
		}
		// A structurally undecodable record.
		w.WriteRaw(time.Unix(0, 0), []byte{0xde, 0xad, 0xbe, 0xef}, 4)
		w.Flush()
		pw.Close()
	}()
	got, skipped := collectServe(t, FollowPCAP("pipe", pr, fastLive), context.Background())
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1", skipped)
	}
	if len(got) != len(conns) {
		t.Errorf("delivered %d connections, want %d", len(got), len(conns))
	}
}

// TestSoakDeterministic: same seed, same stream — connections, order and
// attack plan.
func TestSoakDeterministic(t *testing.T) {
	cfg := SoakConfig{Connections: 150, Seed: 3, AttackFraction: 0.4}
	a, _ := collectServe(t, Soak(cfg), context.Background())
	b, _ := collectServe(t, Soak(cfg), context.Background())
	if len(a) != 150 || len(b) != 150 {
		t.Fatalf("soak delivered %d/%d connections, want 150", len(a), len(b))
	}
	attacks := 0
	for i := range a {
		if a[i].Key != b[i].Key || a[i].AttackName != b[i].AttackName || a[i].Len() != b[i].Len() {
			t.Fatalf("soak diverged at connection %d", i)
		}
		if a[i].AttackName != "" {
			attacks++
		}
	}
	if attacks == 0 {
		t.Fatal("soak with AttackFraction 0.4 planted no attacks")
	}
}

// TestSoakCancellation: an unbounded soak stops at context cancellation.
func TestSoakCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		Soak(SoakConfig{Seed: 1}).Stream(ctx, func(*Connection) {
			n++
			if n == 20 {
				cancel()
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("unbounded soak did not stop on cancellation")
	}
	if n < 20 {
		t.Fatalf("soak delivered %d connections before cancel", n)
	}
}

// TestReplaySource: a batch source replayed connection by connection.
func TestReplaySource(t *testing.T) {
	conns, skipped := collectServe(t, Replay("replay", TrafficGen(9, 4)), context.Background())
	if skipped != 0 || len(conns) != 9 {
		t.Fatalf("replay delivered %d connections (%d skipped), want 9/0", len(conns), skipped)
	}
}

// TestLiveIdleFlushEmitsQuietConnections: a live source built with a
// short LiveConfig.IdleFlush emits a connection that sits in a still-open
// pipe or a quiet file. Neither feed ends, so only the idle flush can
// emit it; delivery within seconds proves the window is the one the
// source was built with, not the 5s default.
func TestLiveIdleFlushEmitsQuietConnections(t *testing.T) {
	for _, mk := range []struct {
		name  string
		build func(path string, r io.Reader, cfg LiveConfig) ServeSource
	}{
		{"follow", func(_ string, r io.Reader, cfg LiveConfig) ServeSource { return FollowPCAP("pipe", r, cfg) }},
		{"tail", func(path string, _ io.Reader, cfg LiveConfig) ServeSource { return TailPCAP(path, cfg) }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			want := GenerateBenign(1, 7)
			path := filepath.Join(t.TempDir(), "live.pcap")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := WritePCAP(f, want); err != nil {
				t.Fatal(err)
			}
			f.Close() // the tail source sees a quiet file that never EOFs logically
			pr, pw := io.Pipe()
			go func() {
				data, _ := os.ReadFile(path)
				pw.Write(data)
				// The pipe stays open: no EOF, so only idle flush can emit.
			}()
			defer pw.Close()

			src := mk.build(path, pr, LiveConfig{Poll: 5 * time.Millisecond, IdleFlush: 40 * time.Millisecond})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			got := make(chan *Connection, 4)
			go src.Stream(ctx, func(c *Connection) { got <- c })
			select {
			case c := <-got:
				if c.Key != want[0].Key {
					t.Fatalf("idle flush delivered %v, want %v", c.Key, want[0].Key)
				}
			case <-time.After(4 * time.Second):
				t.Fatal("connection never idle-flushed: LiveConfig.IdleFlush did not take effect")
			}
		})
	}
}

// TestLiveConfigMaxPacketsSentinel pins the sentinel contract: 0 selects
// the 512 default, negative means unbounded (resolved to the assembler's
// honest 0), positive passes through. Pre-fix, "unbounded" was
// unexpressible: the docs promised 0 meant unbounded while withDefaults
// rewrote 0 to 512 and let -1 leak into the assembler.
func TestLiveConfigMaxPacketsSentinel(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 512},
		{-1, 0},
		{7, 7},
	} {
		if got := (LiveConfig{MaxPackets: tc.in}).withDefaults().MaxPackets; got != tc.want {
			t.Errorf("withDefaults(MaxPackets: %d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestLiveConfigIdleFlushSentinel pins the idle-flush contract: 0 selects
// the 5s default, negative passes through and disables idle flushing (the
// assembly loop starts its ticker only for a positive window), positive
// passes through.
func TestLiveConfigIdleFlushSentinel(t *testing.T) {
	for _, tc := range []struct{ in, want time.Duration }{
		{0, 5 * time.Second},
		{-1, -1},
		{40 * time.Millisecond, 40 * time.Millisecond},
	} {
		if got := (LiveConfig{IdleFlush: tc.in}).withDefaults().IdleFlush; got != tc.want {
			t.Errorf("withDefaults(IdleFlush: %v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// longConnCapture writes one connection of n packets as a raw-IP pcap.
func longConnCapture(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := pcapio.NewWriter(&buf, pcapio.LinkTypeRaw)
	c := [4]byte{10, 0, 0, 9}
	s := [4]byte{192, 0, 2, 9}
	ts := time.Unix(1700000000, 0)
	write := func(p *packet.Packet) {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	write(packet.NewBuilder(c, s, 3001, 80).Flags(packet.SYN).Time(ts).Build())
	write(packet.NewBuilder(s, c, 80, 3001).Flags(packet.SYN | packet.ACK).Time(ts.Add(time.Millisecond)).Build())
	for i := 0; i < n-2; i++ {
		write(packet.NewBuilder(c, s, 3001, 80).Flags(packet.ACK | packet.PSH).
			Seq(uint32(100 + i*64)).PayloadLen(64).
			Time(ts.Add(time.Duration(i+2) * time.Millisecond)).Build())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMaxPacketsUnbounded is the behavioural half of the sentinel pin: a
// 700-packet flow must arrive as one connection under MaxPackets -1 and
// be segmented under the 512 default.
func TestMaxPacketsUnbounded(t *testing.T) {
	const pkts = 700
	capture := longConnCapture(t, pkts)

	cfg := fastLive
	cfg.MaxPackets = -1
	conns, _ := collectServe(t, FollowPCAP("pipe", bytes.NewReader(capture), cfg), context.Background())
	if len(conns) != 1 || conns[0].Len() != pkts {
		t.Fatalf("unbounded: got %d connections (first %d packets), want 1 connection of %d",
			len(conns), conns[0].Len(), pkts)
	}

	cfg.MaxPackets = 0 // default 512
	conns, _ = collectServe(t, FollowPCAP("pipe", bytes.NewReader(capture), cfg), context.Background())
	if len(conns) != 2 {
		t.Fatalf("default budget: got %d connections, want 2 segments", len(conns))
	}
	if got := conns[0].Len() + conns[1].Len(); got != pkts {
		t.Fatalf("segments carry %d packets, want %d", got, pkts)
	}
}

// pcapReaders counts the live pcap reader goroutines.
func pcapReaders() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "created by clap.streamPCAPRecords")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// TestFollowPCAPCancelStopsReader: once Stream returns on cancellation,
// the reader goroutine must exit too, even with most of the capture still
// unread. Nothing drains the handoff after the assembly loop returns, so
// a reader that blocks on a send parks forever, holding the reader and
// every packet it decoded. A small packet budget makes the first delivery
// come at once; the stream is cancelled there.
func TestFollowPCAPCancelStopsReader(t *testing.T) {
	capture := longConnCapture(t, 20000)
	before := pcapReaders()
	cfg := fastLive
	cfg.MaxPackets = 8
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &countingReader{r: bytes.NewReader(capture)}
	if _, err := FollowPCAP("mem", r, cfg).Stream(ctx, func(*Connection) { cancel() }); err != nil {
		t.Fatalf("Stream: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pcapReaders() > before {
		if time.Now().After(deadline) {
			t.Fatal("the pcap reader goroutine is still running 5 s after Stream returned")
		}
		time.Sleep(time.Millisecond)
	}
	if read := r.n.Load(); read >= int64(len(capture)) {
		t.Fatalf("the reader read all %d bytes; it should have stopped at cancellation", read)
	}
}

// TestFollowPCAPPartialBlockOnQuietFeed: packets decoded before the feed
// goes quiet reach the assembler although their block is far from full.
// The pipe carries the global header, one flow's packets and the first
// bytes of one more record, then stays open: only the handoff before a
// read that blocks can pass the flow on, and the idle flush delivers it.
func TestFollowPCAPPartialBlockOnQuietFeed(t *testing.T) {
	const k = 12
	head := longConnCapture(t, k)
	whole := longConnCapture(t, k+1)
	pr, pw := io.Pipe()
	defer pw.Close()
	go pw.Write(whole[:len(head)+5])

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan *Connection, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		FollowPCAP("quiet", pr, fastLive).Stream(ctx, func(c *Connection) { got <- c })
	}()
	defer func() {
		cancel()
		<-done
	}()
	select {
	case c := <-got:
		if c.Len() != k {
			t.Fatalf("delivered a connection of %d packets, want %d", c.Len(), k)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the flow was not delivered while the feed was quiet: its partial block was never handed off")
	}
}

// TestSoakRateTooHigh: a rate that rounds to a sub-nanosecond interval
// must be rejected with an error, not panic inside time.NewTicker.
func TestSoakRateTooHigh(t *testing.T) {
	_, err := Soak(SoakConfig{Connections: 4, Rate: 2e9}).Stream(context.Background(), func(*Connection) {})
	if err == nil {
		t.Fatal("Soak with Rate 2e9 should fail, not run (pre-fix: panic in time.NewTicker)")
	}
}

// failAfterReader serves its payload and then fails with a permanent
// (non-EOF) error — a capture feed dying mid-record.
type failAfterReader struct {
	data []byte
	err  error
}

func (r *failAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestStreamMidRecordError: when the feed dies mid-record, the ingest
// loop must flush everything assembled so far to the deliver callback
// and surface the error — no partial-assembly packets may be lost.
func TestStreamMidRecordError(t *testing.T) {
	want := GenerateBenign(3, 23)
	var buf bytes.Buffer
	if err := WritePCAP(&buf, want); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	boom := errors.New("capture feed died")
	// Cut inside the last record's body.
	r := &failAfterReader{data: whole[:len(whole)-7], err: boom}

	var got []*Connection
	_, err := FollowPCAP("dying", r, fastLive).Stream(context.Background(),
		func(c *Connection) { got = append(got, c) })
	if !errors.Is(err, boom) {
		t.Fatalf("Stream error = %v, want the feed's error", err)
	}
	if len(got) != len(want) {
		t.Fatalf("flushed %d connections after mid-record error, want %d", len(got), len(want))
	}
	wantPkts := 0
	for _, c := range want {
		wantPkts += c.Len()
	}
	gotPkts := 0
	for _, c := range got {
		gotPkts += c.Len()
	}
	if gotPkts != wantPkts-1 {
		// Everything but the truncated final record must have been
		// assembled and flushed.
		t.Fatalf("flushed %d packets, want %d (capture minus the truncated record)", gotPkts, wantPkts-1)
	}
}

// TestTailPCAPRotation: a tailed capture is logrotated (renamed away and
// replaced) and, separately, truncated in place mid-stream. Pre-fix the
// tailer kept polling the stale offset forever; now it must notice,)
// resync to the new global header, and deliver the second capture's
// connections too.
func TestTailPCAPRotation(t *testing.T) {
	for _, mode := range []string{"rename", "truncate"} {
		t.Run(mode, func(t *testing.T) {
			first := GenerateBenign(4, 61)
			second := GenerateBenign(3, 62)
			dir := t.TempDir()
			path := filepath.Join(dir, "rotating.pcap")

			writeCapture := func(p string, conns []*Connection) {
				f, err := os.Create(p)
				if err != nil {
					t.Fatal(err)
				}
				if err := WritePCAP(f, conns); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			writeCapture(path, first)

			src := TailPCAP(path, fastLive)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			got := make(chan *Connection, 64)
			done := make(chan error, 1)
			go func() {
				_, err := src.Stream(ctx, func(c *Connection) { got <- c })
				done <- err
			}()

			collect := func(n int, stage string) []*Connection {
				var conns []*Connection
				deadline := time.After(20 * time.Second)
				for len(conns) < n {
					select {
					case c := <-got:
						conns = append(conns, c)
					case <-deadline:
						t.Fatalf("%s: delivered %d connections, want %d", stage, len(conns), n)
					}
				}
				return conns
			}
			collect(len(first), "before rotation")

			switch mode {
			case "rename":
				if err := os.Rename(path, path+".1"); err != nil {
					t.Fatal(err)
				}
				writeCapture(path, second)
			case "truncate":
				if err := os.Truncate(path, 0); err != nil {
					t.Fatal(err)
				}
				// Shrink detection is poll-based (as in tail -F): give the
				// tailer a few poll cycles to observe size < offset before
				// the file regrows past it.
				time.Sleep(20 * fastLive.Poll)
				f, err := os.OpenFile(path, os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := WritePCAP(f, second); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}

			after := collect(len(second), "after rotation")
			for i := range second {
				if after[i].Key != second[i].Key {
					t.Fatalf("post-rotation conn %d: key %v != %v", i, after[i].Key, second[i].Key)
				}
			}
			cancel()
			if err := <-done; err != nil {
				t.Fatalf("tail stream: %v", err)
			}
		})
	}
}
