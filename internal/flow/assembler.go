package flow

import (
	"time"

	"clap/internal/packet"
)

// Assembler is the incremental form of Assemble for live capture: packets
// are fed as they arrive, singly or in blocks, and finished connections
// are emitted through a callback, so a long-running ingest loop never
// holds the whole capture in memory. The grouping rules are identical to
// Assemble — same client orientation, same port-reuse handling — and a
// Feed-everything-then-Flush run emits exactly the connections Assemble
// would have returned. The order is Assemble's (by first packet) except
// across a port reuse: the closed connection is emitted the moment its
// 4-tuple reopens, ahead of connections opened before it and still open.
//
// Because live TCP teardowns trail packets after the closing FIN/RST (the
// final ACK, retransmitted FINs), a connection is not emitted the instant
// it closes. Emission happens on:
//
//   - Budget: the connection reached MaxPackets (long-lived flows are cut
//     and scored in segments rather than buffered forever);
//   - Port reuse: a fresh SYN on a closed 4-tuple emits the old
//     connection and opens a new one, exactly where Assemble splits;
//   - FlushIdle: the connection saw no packet for the idle window
//     (serving loops call this on a ticker);
//   - Flush: end of stream.
//
// An Assembler is not safe for concurrent use; live sources feed it from
// their single ingest goroutine.
type Assembler struct {
	// MaxPackets is the per-connection packet budget; a connection
	// reaching it is emitted immediately. 0 means unbounded.
	MaxPackets int

	emit   func(*Connection)
	active map[Key]*slot
	order  []*slot // insertion order, the order Assemble would emit
	now    func() time.Time
}

// NewAssembler returns an incremental assembler delivering finished
// connections to emit.
func NewAssembler(emit func(*Connection)) *Assembler {
	return &Assembler{emit: emit, active: make(map[Key]*slot), now: time.Now}
}

// Feed appends capture-ordered packets, emitting any connection a packet
// completes (budget fill or port reuse after close). Feeding a block at
// once emits exactly what feeding its packets one by one would, in the
// same order; the only difference is the clock, read once per call, so
// every packet of the block carries the same idle-flush stamp. The slice
// itself is not retained.
func (a *Assembler) Feed(pkts ...*packet.Packet) {
	now := a.now()
	for _, p := range pkts {
		a.feed(p, now)
	}
}

func (a *Assembler) feed(p *packet.Packet, now time.Time) {
	k := keyOf(p)
	s, dir := lookup(a.active, k)
	if s != nil && s.reusedBy(p, dir) {
		// Port reuse after close: the old connection is complete.
		a.emitSlot(s)
		s = nil
	}
	if s == nil {
		s = newSlot(k)
		a.active[k] = s
		a.order = append(a.order, s)
		dir = ClientToServer
	}
	s.add(p, dir)
	s.lastFeed = now
	if a.MaxPackets > 0 && s.conn.Len() >= a.MaxPackets {
		a.emitSlot(s)
	}
}

// emitSlot delivers a slot's connection and retires it. Slots stay in the
// order list (marked emitted) so Flush keeps Assemble's output order
// without re-sorting.
func (a *Assembler) emitSlot(s *slot) {
	if s.emitted {
		return
	}
	s.emitted = true
	delete(a.active, s.conn.Key)
	a.emit(&s.conn)
}

// Pending reports how many connections are buffered awaiting close/flush.
func (a *Assembler) Pending() int { return len(a.active) }

// PendingPackets reports the total packets buffered in open connections —
// the assembler's memory footprint, surfaced to serving metrics.
func (a *Assembler) PendingPackets() int {
	n := 0
	for _, s := range a.active {
		n += s.conn.Len()
	}
	return n
}

// FlushIdle emits every connection that saw no packet for at least idle
// (by wall clock of the Feed calls, not packet timestamps — live replay
// and synthetic captures carry fake timestamps). It returns the number of
// connections emitted.
func (a *Assembler) FlushIdle(idle time.Duration) int {
	cutoff := a.now().Add(-idle)
	n := 0
	for _, s := range a.order {
		if !s.emitted && s.lastFeed.Before(cutoff) {
			a.emitSlot(s)
			n++
		}
	}
	a.compact()
	return n
}

// Flush emits every remaining connection in first-packet order — the end
// of the stream. After Flush the assembler is empty and reusable.
func (a *Assembler) Flush() {
	for i, s := range a.order {
		if !s.emitted {
			a.emitSlot(s)
		}
		// Clear the backing array: truncating alone would pin the last
		// stream's slots (and their *Connections) for the assembler's
		// lifetime.
		a.order[i] = nil
	}
	a.order = a.order[:0]
}

// compact drops emitted slots from the order list once they dominate it,
// so a long-running assembler does not grow without bound.
func (a *Assembler) compact() {
	if len(a.order) < 64 || len(a.active)*2 > len(a.order) {
		return
	}
	live := a.order[:0]
	for _, s := range a.order {
		if !s.emitted {
			live = append(live, s)
		}
	}
	for i := len(live); i < len(a.order); i++ {
		a.order[i] = nil
	}
	a.order = live
}
