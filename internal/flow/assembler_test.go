package flow

import (
	"testing"
	"time"

	"clap/internal/packet"
)

// conn synthesizes one full connection's packet train on port sp:
// handshake, n data packets, then a teardown selected by close ("fin",
// "rst", or "none").
func connPackets(sp uint16, n int, closeKind string, at time.Duration) []*packet.Packet {
	pkts := handshake(sp, at)
	seq := uint32(101)
	for i := 0; i < n; i++ {
		at += time.Millisecond
		pkts = append(pkts, mkPkt(cIP, sIP, sp, 80, packet.ACK|packet.PSH, seq, at))
		seq += 64
	}
	switch closeKind {
	case "fin":
		pkts = append(pkts,
			mkPkt(cIP, sIP, sp, 80, packet.FIN|packet.ACK, seq, at+time.Millisecond),
			mkPkt(sIP, cIP, 80, sp, packet.ACK, 301, at+2*time.Millisecond),
			mkPkt(sIP, cIP, 80, sp, packet.FIN|packet.ACK, 301, at+3*time.Millisecond),
			// The final ACK trails both FINs — the live assembler must keep
			// it with the connection instead of emitting at the second FIN.
			mkPkt(cIP, sIP, sp, 80, packet.ACK, seq+1, at+4*time.Millisecond))
	case "rst":
		pkts = append(pkts, mkPkt(sIP, cIP, 80, sp, packet.RST, 301, at+time.Millisecond))
	}
	return pkts
}

// interleave round-robins several packet trains into one capture order.
func interleave(trains ...[]*packet.Packet) []*packet.Packet {
	var out []*packet.Packet
	for i := 0; ; i++ {
		advanced := false
		for _, tr := range trains {
			if i < len(tr) {
				out = append(out, tr[i])
				advanced = true
			}
		}
		if !advanced {
			return out
		}
	}
}

// testCapture is a mixed capture: clean FIN close, RST close, half-open,
// all interleaved the way a live tap would see them.
func testCapture() []*packet.Packet {
	return interleave(
		connPackets(2001, 4, "fin", 0),
		connPackets(2002, 2, "rst", time.Microsecond),
		connPackets(2003, 6, "none", 2*time.Microsecond),
		connPackets(2004, 1, "fin", 3*time.Microsecond),
	)
}

// TestAssemblerMatchesAssemble is the equivalence contract: feeding a full
// capture through the incremental assembler and flushing reproduces
// Assemble's output exactly — same connections, same packets, same order.
func TestAssemblerMatchesAssemble(t *testing.T) {
	pkts := testCapture()
	want := Assemble(pkts)
	if len(want) != 4 {
		t.Fatalf("fixture assembled into %d connections, want 4", len(want))
	}

	var got []*Connection
	a := NewAssembler(func(c *Connection) { got = append(got, c) })
	for _, p := range pkts {
		a.Feed(p)
	}
	a.Flush()

	if len(got) != len(want) {
		t.Fatalf("assembler emitted %d connections, Assemble produced %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key {
			t.Fatalf("conn %d: key %v != %v", i, got[i].Key, want[i].Key)
		}
		if len(got[i].Packets) != len(want[i].Packets) {
			t.Fatalf("conn %d: %d packets != %d", i, len(got[i].Packets), len(want[i].Packets))
		}
		for j := range want[i].Packets {
			if got[i].Packets[j] != want[i].Packets[j] {
				t.Fatalf("conn %d packet %d: pointer mismatch", i, j)
			}
			if got[i].Dirs[j] != want[i].Dirs[j] {
				t.Fatalf("conn %d packet %d: direction mismatch", i, j)
			}
		}
	}
	if a.Pending() != 0 || a.PendingPackets() != 0 {
		t.Fatalf("assembler not empty after Flush: %d conns / %d packets",
			a.Pending(), a.PendingPackets())
	}
}

// TestAssemblerBlockFeedMatchesPerPacket is the block contract live
// sources rely on: Feed(block...) emits the same connections, in the same
// order and by the end of the same packet, as feeding the block's packets
// one call at a time. The corpus adds a port reuse to the equivalence
// fixture; block sizes 1, 7 and 256 put connection boundaries, the reuse
// split and (under budget 5) MaxPackets cuts across and inside blocks.
func TestAssemblerBlockFeedMatchesPerPacket(t *testing.T) {
	pkts := append(testCapture(), connPackets(4001, 2, "fin", 0)...)
	pkts = append(pkts, connPackets(4001, 3, "rst", time.Second)...)
	for _, budget := range []int{0, 5} {
		var want []*Connection
		ref := NewAssembler(func(c *Connection) { want = append(want, c) })
		ref.MaxPackets = budget
		emittedAfter := make([]int, len(pkts))
		for i, p := range pkts {
			ref.Feed(p)
			emittedAfter[i] = len(want)
		}
		ref.Flush()
		if budget > 0 && emittedAfter[len(pkts)-1] < 3 {
			t.Fatalf("budget %d cut only %d connections before Flush; the fixture should cut more", budget, emittedAfter[len(pkts)-1])
		}

		for _, size := range []int{1, 7, 256} {
			var got []*Connection
			a := NewAssembler(func(c *Connection) { got = append(got, c) })
			a.MaxPackets = budget
			for lo := 0; lo < len(pkts); lo += size {
				hi := min(lo+size, len(pkts))
				a.Feed(pkts[lo:hi]...)
				if len(got) != emittedAfter[hi-1] {
					t.Fatalf("budget %d, block %d: %d connections out after packet %d, per-packet feed had %d",
						budget, size, len(got), hi-1, emittedAfter[hi-1])
				}
			}
			a.Flush()
			if len(got) != len(want) {
				t.Fatalf("budget %d, block %d: %d connections, per-packet feed %d", budget, size, len(got), len(want))
			}
			for i := range want {
				if got[i].Key != want[i].Key || len(got[i].Packets) != len(want[i].Packets) {
					t.Fatalf("budget %d, block %d, conn %d: %v with %d packets, want %v with %d",
						budget, size, i, got[i].Key, len(got[i].Packets), want[i].Key, len(want[i].Packets))
				}
				for j := range want[i].Packets {
					if got[i].Packets[j] != want[i].Packets[j] || got[i].Dirs[j] != want[i].Dirs[j] {
						t.Fatalf("budget %d, block %d, conn %d packet %d: mismatch", budget, size, i, j)
					}
				}
			}
		}
	}
}

// TestAssemblerBudget cuts long connections at the packet budget.
func TestAssemblerBudget(t *testing.T) {
	pkts := testCapture()
	var got []*Connection
	a := NewAssembler(func(c *Connection) { got = append(got, c) })
	a.MaxPackets = 5
	for _, p := range pkts {
		a.Feed(p)
	}
	a.Flush()
	if len(got) < 4 {
		t.Fatalf("emitted %d connections, want at least the 4 originals", len(got))
	}
	total := 0
	for i, c := range got {
		if c.Len() > 5 {
			t.Fatalf("conn %d has %d packets, budget is 5", i, c.Len())
		}
		total += c.Len()
	}
	if total != len(pkts) {
		t.Fatalf("emitted %d packets, fed %d", total, len(pkts))
	}
}

// TestAssemblerFlushIdle emits only connections idle past the window,
// using an injected clock.
func TestAssemblerFlushIdle(t *testing.T) {
	clock := time.Unix(0, 0)
	var got []*Connection
	a := NewAssembler(func(c *Connection) { got = append(got, c) })
	a.now = func() time.Time { return clock }

	early := connPackets(3001, 3, "none", 0)
	late := connPackets(3002, 3, "none", time.Microsecond)
	for _, p := range early {
		a.Feed(p)
	}
	clock = clock.Add(10 * time.Second)
	for _, p := range late {
		a.Feed(p)
	}

	if n := a.FlushIdle(5 * time.Second); n != 1 {
		t.Fatalf("FlushIdle emitted %d connections, want 1 (the idle one)", n)
	}
	if len(got) != 1 || got[0].Key.Client.Port != 3001 {
		t.Fatalf("FlushIdle emitted the wrong connection: %+v", got)
	}
	// The still-active connection remains pending until a full Flush.
	if a.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", a.Pending())
	}
	a.Flush()
	if len(got) != 2 {
		t.Fatalf("after Flush: %d connections, want 2", len(got))
	}
}

// TestAssemblerPortReuse splits a reused 4-tuple like Assemble does: the
// closed connection is emitted the moment the fresh SYN arrives.
func TestAssemblerPortReuse(t *testing.T) {
	first := connPackets(4001, 2, "fin", 0)
	second := connPackets(4001, 3, "rst", time.Second)
	pkts := append(append([]*packet.Packet{}, first...), second...)
	want := Assemble(pkts)
	if len(want) != 2 {
		t.Fatalf("Assemble split reused tuple into %d connections, want 2", len(want))
	}

	var got []*Connection
	a := NewAssembler(func(c *Connection) { got = append(got, c) })
	for _, p := range pkts {
		a.Feed(p)
	}
	// The first connection must already be out: its tuple was reused.
	if len(got) != 1 || got[0].Len() != len(first) {
		t.Fatalf("port reuse did not emit the closed connection: %+v", got)
	}
	a.Flush()
	if len(got) != 2 || got[1].Len() != len(second) {
		t.Fatalf("assembler split reused tuple into %d connections", len(got))
	}
}

// TestAssemblerPortReuseEmitsAhead pins what a port reuse does to the
// emit order. A (still open) and B (reset) interleave, then a fresh client
// SYN reuses B's 4-tuple as B′. The Assembler emits Assemble's
// connections, but not in Assemble's order: Assemble returns A, B, B′,
// while the Assembler emits B the moment B′ opens, ahead of A, and A and
// B′ at Flush.
func TestAssemblerPortReuseEmitsAhead(t *testing.T) {
	a := connPackets(5001, 3, "none", 0)
	b := connPackets(5002, 1, "rst", time.Microsecond)
	b2 := connPackets(5002, 2, "rst", time.Second)
	pkts := append(interleave(a, b), b2...)
	want := Assemble(pkts)
	if len(want) != 3 || want[0].Packets[0] != a[0] || want[1].Packets[0] != b[0] || want[2].Packets[0] != b2[0] {
		t.Fatalf("Assemble returned %d connections, want A, B, B′", len(want))
	}

	var got []*Connection
	asm := NewAssembler(func(c *Connection) { got = append(got, c) })
	for _, p := range pkts {
		asm.Feed(p)
	}
	asm.Flush()
	order := []*Connection{want[1], want[0], want[2]}
	if len(got) != len(order) {
		t.Fatalf("assembler emitted %d connections, want %d", len(got), len(order))
	}
	for i, w := range order {
		g := got[i]
		if g.Key != w.Key || len(g.Packets) != len(w.Packets) {
			t.Fatalf("emit %d: %v with %d packets, want %v with %d (order B, A, B′)", i, g.Key, len(g.Packets), w.Key, len(w.Packets))
		}
		for j := range w.Packets {
			if g.Packets[j] != w.Packets[j] || g.Dirs[j] != w.Dirs[j] {
				t.Fatalf("emit %d packet %d differs from Assemble's", i, j)
			}
		}
	}
}

// TestAssemblerFlushReleasesSlots pins that Flush clears the order list's
// backing array. Truncating with [:0] alone keeps every emitted slot (and
// its *Connection, and every *packet.Packet in it) reachable through the
// retained backing array for the assembler's whole lifetime.
func TestAssemblerFlushReleasesSlots(t *testing.T) {
	a := NewAssembler(func(*Connection) {})
	for _, p := range testCapture() {
		a.Feed(p)
	}
	a.Flush()
	tail := a.order[:cap(a.order)]
	for i, s := range tail {
		if s != nil {
			t.Fatalf("order backing array slot %d still pins an emitted connection after Flush", i)
		}
	}
}

// TestAssemblerReverseSYNOnClosedSlot pins the port-reuse asymmetry
// against the batch path: a pure SYN arriving server→client on a closed
// slot must NOT split the connection (only a client→server SYN signals
// reuse); it is appended to the old connection exactly as Assemble does.
func TestAssemblerReverseSYNOnClosedSlot(t *testing.T) {
	const sp = 2101
	pkts := connPackets(sp, 2, "rst", 0)
	// A stray SYN from the server side of the same 4-tuple after close
	// (seen in traces with simultaneous-open weirdness and scanners).
	pkts = append(pkts, mkPkt(sIP, cIP, 80, sp, packet.SYN, 9000, time.Second))
	// Then genuine client-side port reuse, which must split.
	pkts = append(pkts, handshake(sp, time.Second+time.Millisecond)...)

	want := Assemble(pkts)
	var got []*Connection
	a := NewAssembler(func(c *Connection) { got = append(got, c) })
	for _, p := range pkts {
		a.Feed(p)
	}
	a.Flush()

	if len(want) != 2 {
		t.Fatalf("Assemble produced %d connections, fixture expects 2", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("assembler emitted %d connections, Assemble produced %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key {
			t.Fatalf("conn %d: key %v != %v", i, got[i].Key, want[i].Key)
		}
		if len(got[i].Packets) != len(want[i].Packets) {
			t.Fatalf("conn %d: %d packets != %d", i, len(got[i].Packets), len(want[i].Packets))
		}
		for j := range want[i].Packets {
			if got[i].Packets[j] != want[i].Packets[j] || got[i].Dirs[j] != want[i].Dirs[j] {
				t.Fatalf("conn %d packet %d: mismatch vs Assemble", i, j)
			}
		}
	}
	// The stray reverse SYN must have been folded into the first
	// (closed) connection as a ServerToClient packet, not a new conn.
	first := got[0]
	last := first.Dirs[len(first.Dirs)-1]
	if last != ServerToClient {
		t.Fatalf("stray reverse SYN direction = %v, want ServerToClient", last)
	}
}
