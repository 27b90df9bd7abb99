// Package flow groups packets into TCP connections and orients them
// client→server, the unit of analysis for CLAP: every context profile,
// adversarial score and localization verdict is per-connection.
package flow

import (
	"fmt"
	"sort"
	"time"

	"clap/internal/packet"
)

// Direction orients a packet within its connection.
type Direction uint8

// Directions relative to the connection initiator (client).
const (
	ClientToServer Direction = iota
	ServerToClient
)

// String returns ">" for client→server and "<" for server→client.
func (d Direction) String() string {
	if d == ClientToServer {
		return ">"
	}
	return "<"
}

// Endpoint is one side of a connection.
type Endpoint struct {
	IP   [4]byte
	Port uint16
}

// Key identifies a connection oriented client→server.
type Key struct {
	Client Endpoint
	Server Endpoint
}

// String renders the key as "a.b.c.d:p > a.b.c.d:p".
func (k Key) String() string {
	return fmt.Sprintf("%d.%d.%d.%d:%d > %d.%d.%d.%d:%d",
		k.Client.IP[0], k.Client.IP[1], k.Client.IP[2], k.Client.IP[3], k.Client.Port,
		k.Server.IP[0], k.Server.IP[1], k.Server.IP[2], k.Server.IP[3], k.Server.Port)
}

// Reverse swaps client and server.
func (k Key) Reverse() Key { return Key{Client: k.Server, Server: k.Client} }

// keyOf extracts the (src, dst) key of a single packet.
func keyOf(p *packet.Packet) Key {
	return Key{
		Client: Endpoint{IP: p.IP.SrcIP, Port: p.TCP.SrcPort},
		Server: Endpoint{IP: p.IP.DstIP, Port: p.TCP.DstPort},
	}
}

// Connection is a capture-ordered train of packets between two endpoints.
// One that Assemble or an Assembler built shares its allocation with the
// flow's assembly state and room for its first nine packets and
// directions, so a short flow costs one allocation; a longer train grows by
// doubling, as Append does on a Connection built anywhere else.
type Connection struct {
	Key     Key
	Packets []*packet.Packet
	// Dirs[i] orients Packets[i]; len(Dirs) == len(Packets).
	Dirs []Direction

	// Adversarial ground truth, populated by the attack simulator: indices
	// into Packets of injected or modified packets. Empty for benign
	// connections.
	AdvIdx []int
	// AttackName names the strategy applied, "" for benign connections.
	AttackName string

	// Tenant names the serving tenant this connection was ingested for
	// ("" outside multi-tenant serving). It rides the connection through
	// the shared scoring stream so per-connection pair resolution can pin
	// the owning tenant's (model, threshold).
	Tenant string

	// Source names the ingest source that delivered the connection ("
	// outside serving, or with tracing off). Provenance records carry it
	// so an operator can attribute a verdict to its capture point.
	Source string
	// TraceSampled marks a deterministic head-sampling hit decided at
	// delivery: the serving layer retains this connection's full
	// per-window error series even if it is not flagged.
	TraceSampled bool
}

// Len returns the number of packets.
func (c *Connection) Len() int { return len(c.Packets) }

// Append adds a packet with its direction.
func (c *Connection) Append(p *packet.Packet, d Direction) {
	c.Packets = append(c.Packets, p)
	c.Dirs = append(c.Dirs, d)
}

// Clone deep-copies the connection so attack strategies can mutate freely.
func (c *Connection) Clone() *Connection {
	out := &Connection{
		Key:          c.Key,
		Packets:      make([]*packet.Packet, len(c.Packets)),
		Dirs:         append([]Direction(nil), c.Dirs...),
		AdvIdx:       append([]int(nil), c.AdvIdx...),
		AttackName:   c.AttackName,
		Tenant:       c.Tenant,
		Source:       c.Source,
		TraceSampled: c.TraceSampled,
	}
	for i, p := range c.Packets {
		out.Packets[i] = p.Clone()
	}
	return out
}

// IsAdversarial reports whether ground truth marks any packet adversarial.
func (c *Connection) IsAdversarial() bool { return len(c.AdvIdx) > 0 }

// InsertAt inserts packet p with direction d before index i and shifts the
// adversarial ground-truth indices accordingly. It returns the index the
// packet landed on.
func (c *Connection) InsertAt(i int, p *packet.Packet, d Direction) int {
	if i < 0 {
		i = 0
	}
	if i > len(c.Packets) {
		i = len(c.Packets)
	}
	c.Packets = append(c.Packets, nil)
	copy(c.Packets[i+1:], c.Packets[i:])
	c.Packets[i] = p
	c.Dirs = append(c.Dirs, 0)
	copy(c.Dirs[i+1:], c.Dirs[i:])
	c.Dirs[i] = d
	for j, a := range c.AdvIdx {
		if a >= i {
			c.AdvIdx[j] = a + 1
		}
	}
	return i
}

// MarkAdversarial records index i as adversarial ground truth.
func (c *Connection) MarkAdversarial(i int) {
	for _, a := range c.AdvIdx {
		if a == i {
			return
		}
	}
	c.AdvIdx = append(c.AdvIdx, i)
	sort.Ints(c.AdvIdx)
}

// Assemble groups a capture-ordered packet stream into connections. The
// initiator is the sender of the first SYN seen for the 4-tuple; for
// connections captured mid-stream (no SYN) the first packet's sender is
// treated as the client. A SYN for a 4-tuple whose previous connection has
// been closed (or a SYN with a fresh ISN after FIN/RST exchange) starts a
// new connection, so port reuse does not merge distinct flows.
func Assemble(pkts []*packet.Packet) []*Connection {
	active := make(map[Key]*slot)
	var order []*Connection

	for _, p := range pkts {
		k := keyOf(p)
		s, dir := lookup(active, k)
		if s != nil && s.reusedBy(p, dir) {
			// Port reuse after close: start a fresh connection.
			delete(active, s.conn.Key)
			s = nil
		}
		if s == nil {
			s = newSlot(k)
			active[k] = s
			order = append(order, &s.conn)
			dir = ClientToServer
		}
		s.add(p, dir)
	}
	return order
}

// slotPackets is how many packets a flow holds before its train first
// grows: nine fill the slot's 256-byte size class on 64-bit platforms.
const slotPackets = 9

// slot is one flow being assembled. Its Connection and the room for the
// flow's first packets and directions are part of it, so opening a flow is
// one allocation and a flow of up to slotPackets packets needs no other.
// Slots are never pooled or shared between flows: a long-lived flow pins
// its own slot and nothing else.
type slot struct {
	conn     Connection
	closed   bool // saw RST, or FIN in both directions
	finC2S   bool
	finS2C   bool
	emitted  bool // Assembler: the connection has been delivered
	dirs     [slotPackets]Direction
	lastFeed time.Time // Assembler: wall clock of the flow's last Feed
	pkts     [slotPackets]*packet.Packet
}

func newSlot(k Key) *slot {
	s := &slot{conn: Connection{Key: k}}
	s.conn.Packets = s.pkts[:0]
	s.conn.Dirs = s.dirs[:0]
	return s
}

// lookup finds the open flow a packet keyed k belongs to, and the packet's
// direction in it; nil when there is none.
func lookup(active map[Key]*slot, k Key) (*slot, Direction) {
	if s, ok := active[k]; ok {
		return s, ClientToServer
	}
	return active[k.Reverse()], ServerToClient
}

// reusedBy reports whether p, arriving in direction dir, opens a new
// connection on the slot's 4-tuple: a client→server SYN after close.
func (s *slot) reusedBy(p *packet.Packet, dir Direction) bool {
	isSYN := p.TCP.Flags.Has(packet.SYN) && !p.TCP.Flags.Has(packet.ACK)
	return isSYN && dir == ClientToServer && s.closed
}

// add appends p to the flow and tracks its teardown.
func (s *slot) add(p *packet.Packet, dir Direction) {
	s.conn.Append(p, dir)
	switch {
	case p.TCP.Flags.Has(packet.RST):
		s.closed = true
	case p.TCP.Flags.Has(packet.FIN):
		if dir == ClientToServer {
			s.finC2S = true
		} else {
			s.finS2C = true
		}
		if s.finC2S && s.finS2C {
			s.closed = true
		}
	}
}

// Flatten concatenates the packets of all connections back into one
// capture-ordered stream sorted by timestamp (stable for ties).
func Flatten(conns []*Connection) []*packet.Packet {
	var out []*packet.Packet
	for _, c := range conns {
		out = append(out, c.Packets...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Timestamp.Before(out[j].Timestamp)
	})
	return out
}

// Stats summarises a connection set (Table 4's census columns).
type Stats struct {
	Connections int
	Packets     int
	Adversarial int
}

// Census counts connections and packets.
func Census(conns []*Connection) Stats {
	var s Stats
	for _, c := range conns {
		s.Connections++
		s.Packets += c.Len()
		if c.IsAdversarial() {
			s.Adversarial++
		}
	}
	return s
}
