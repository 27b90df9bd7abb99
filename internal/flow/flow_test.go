package flow

import (
	"testing"
	"time"

	"clap/internal/packet"
)

var (
	cIP = [4]byte{10, 0, 0, 1}
	sIP = [4]byte{192, 0, 2, 1}
)

func mkPkt(src, dst [4]byte, sp, dp uint16, flags packet.Flags, seq uint32, at time.Duration) *packet.Packet {
	return packet.NewBuilder(src, dst, sp, dp).Seq(seq).Flags(flags).
		Time(time.Unix(1600000000, 0).Add(at)).Build()
}

func handshake(sp uint16, at time.Duration) []*packet.Packet {
	return []*packet.Packet{
		mkPkt(cIP, sIP, sp, 80, packet.SYN, 100, at),
		mkPkt(sIP, cIP, 80, sp, packet.SYN|packet.ACK, 300, at+time.Millisecond),
		mkPkt(cIP, sIP, sp, 80, packet.ACK, 101, at+2*time.Millisecond),
	}
}

func TestAssembleSingleConnection(t *testing.T) {
	pkts := handshake(1234, 0)
	conns := Assemble(pkts)
	if len(conns) != 1 {
		t.Fatalf("got %d connections, want 1", len(conns))
	}
	c := conns[0]
	if c.Len() != 3 {
		t.Fatalf("connection has %d packets, want 3", c.Len())
	}
	wantDirs := []Direction{ClientToServer, ServerToClient, ClientToServer}
	for i, d := range c.Dirs {
		if d != wantDirs[i] {
			t.Errorf("Dirs[%d] = %v, want %v", i, d, wantDirs[i])
		}
	}
	if c.Key.Client.Port != 1234 || c.Key.Server.Port != 80 {
		t.Errorf("Key = %v, want client :1234 server :80", c.Key)
	}
}

func TestAssembleInterleavedConnections(t *testing.T) {
	a := handshake(1111, 0)
	b := handshake(2222, time.Microsecond)
	var mixed []*packet.Packet
	for i := range a {
		mixed = append(mixed, a[i], b[i])
	}
	conns := Assemble(mixed)
	if len(conns) != 2 {
		t.Fatalf("got %d connections, want 2", len(conns))
	}
	for _, c := range conns {
		if c.Len() != 3 {
			t.Errorf("connection %v has %d packets, want 3", c.Key, c.Len())
		}
	}
}

func TestAssemblePortReuseAfterRST(t *testing.T) {
	first := handshake(1234, 0)
	first = append(first, mkPkt(cIP, sIP, 1234, 80, packet.RST, 101, 3*time.Millisecond))
	second := handshake(1234, time.Second)
	conns := Assemble(append(first, second...))
	if len(conns) != 2 {
		t.Fatalf("got %d connections, want 2 (port reuse after RST)", len(conns))
	}
	if conns[0].Len() != 4 || conns[1].Len() != 3 {
		t.Errorf("lens = %d,%d want 4,3", conns[0].Len(), conns[1].Len())
	}
}

func TestAssembleMidStreamCapture(t *testing.T) {
	// No SYN: first sender becomes the client.
	pkts := []*packet.Packet{
		mkPkt(sIP, cIP, 80, 9999, packet.ACK|packet.PSH, 500, 0),
		mkPkt(cIP, sIP, 9999, 80, packet.ACK, 100, time.Millisecond),
	}
	conns := Assemble(pkts)
	if len(conns) != 1 {
		t.Fatalf("got %d connections, want 1", len(conns))
	}
	if conns[0].Key.Client.Port != 80 {
		t.Errorf("mid-stream client port = %d, want 80 (first sender)", conns[0].Key.Client.Port)
	}
	if conns[0].Dirs[1] != ServerToClient {
		t.Errorf("second packet direction = %v, want ServerToClient", conns[0].Dirs[1])
	}
}

func TestInsertAtShiftsAdvIdx(t *testing.T) {
	conns := Assemble(handshake(1234, 0))
	c := conns[0]
	c.MarkAdversarial(1)
	p := mkPkt(cIP, sIP, 1234, 80, packet.RST, 101, time.Millisecond)
	idx := c.InsertAt(1, p, ClientToServer)
	if idx != 1 {
		t.Fatalf("InsertAt returned %d, want 1", idx)
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	if len(c.AdvIdx) != 1 || c.AdvIdx[0] != 2 {
		t.Errorf("AdvIdx = %v, want [2] (shifted)", c.AdvIdx)
	}
	if c.Packets[1] != p {
		t.Error("inserted packet not at index 1")
	}
}

func TestInsertAtClamps(t *testing.T) {
	conns := Assemble(handshake(1234, 0))
	c := conns[0]
	p := mkPkt(cIP, sIP, 1234, 80, packet.ACK, 101, time.Millisecond)
	if idx := c.InsertAt(-5, p, ClientToServer); idx != 0 {
		t.Errorf("InsertAt(-5) = %d, want 0", idx)
	}
	if idx := c.InsertAt(99, p, ClientToServer); idx != c.Len()-1 {
		t.Errorf("InsertAt(99) = %d, want %d", idx, c.Len()-1)
	}
}

func TestMarkAdversarialDedupAndSort(t *testing.T) {
	c := &Connection{}
	c.MarkAdversarial(5)
	c.MarkAdversarial(2)
	c.MarkAdversarial(5)
	if len(c.AdvIdx) != 2 || c.AdvIdx[0] != 2 || c.AdvIdx[1] != 5 {
		t.Errorf("AdvIdx = %v, want [2 5]", c.AdvIdx)
	}
	if !c.IsAdversarial() {
		t.Error("IsAdversarial should be true")
	}
}

func TestCloneIndependence(t *testing.T) {
	conns := Assemble(handshake(1234, 0))
	c := conns[0]
	c.AttackName = "orig"
	c.Tenant = "edge"
	d := c.Clone()
	d.Packets[0].TCP.Seq = 42
	d.MarkAdversarial(0)
	d.AttackName = "copy"
	d.Tenant = "other"
	if c.Packets[0].TCP.Seq == 42 {
		t.Error("Clone shares packets")
	}
	if c.IsAdversarial() {
		t.Error("Clone shares AdvIdx")
	}
	if c.AttackName != "orig" {
		t.Error("Clone shares AttackName")
	}
	if c.Tenant != "edge" {
		t.Error("Clone shares Tenant")
	}
	if e := c.Clone(); e.Tenant != "edge" {
		t.Errorf("Clone dropped Tenant: got %q", e.Tenant)
	}
}

func TestFlattenSortsByTimestamp(t *testing.T) {
	a := handshake(1111, 0)
	b := handshake(2222, time.Microsecond)
	conns := Assemble(append(append([]*packet.Packet{}, a...), b...))
	flat := Flatten(conns)
	if len(flat) != 6 {
		t.Fatalf("flatten returned %d packets, want 6", len(flat))
	}
	for i := 1; i < len(flat); i++ {
		if flat[i].Timestamp.Before(flat[i-1].Timestamp) {
			t.Fatalf("packets not time ordered at %d", i)
		}
	}
}

func TestCensus(t *testing.T) {
	conns := Assemble(append(handshake(1111, 0), handshake(2222, time.Second)...))
	conns[0].MarkAdversarial(1)
	s := Census(conns)
	if s.Connections != 2 || s.Packets != 6 || s.Adversarial != 1 {
		t.Errorf("Census = %+v, want {2 6 1}", s)
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Client: Endpoint{IP: cIP, Port: 5}, Server: Endpoint{IP: sIP, Port: 80}}
	want := "10.0.0.1:5 > 192.0.2.1:80"
	if got := k.String(); got != want {
		t.Errorf("Key.String() = %q, want %q", got, want)
	}
	if k.Reverse().Client.Port != 80 {
		t.Error("Reverse should swap endpoints")
	}
}

func TestDirectionString(t *testing.T) {
	if ClientToServer.String() != ">" || ServerToClient.String() != "<" {
		t.Error("Direction.String mismatch")
	}
}

func TestAssembleSYNWithoutCloseDoesNotSplit(t *testing.T) {
	// A retransmitted SYN on a live (unclosed) connection must stay in the
	// same connection object.
	pkts := handshake(1234, 0)
	dup := mkPkt(cIP, sIP, 1234, 80, packet.SYN, 100, 3*time.Millisecond)
	pkts = append(pkts, dup)
	conns := Assemble(pkts)
	if len(conns) != 1 {
		t.Fatalf("got %d connections, want 1 (no split without close)", len(conns))
	}
	if conns[0].Len() != 4 {
		t.Fatalf("got %d packets, want 4", conns[0].Len())
	}
}

func TestFlattenEmpty(t *testing.T) {
	if got := Flatten(nil); len(got) != 0 {
		t.Errorf("Flatten(nil) returned %d packets", len(got))
	}
}

// TestAssembledTrainsDoNotAlias: an assembled connection's packet and
// direction trains start inside its slot, with room to spare. Appending to
// a Clone, to the original or to a neighbouring flow must never show
// through another connection, within that room or past it.
func TestAssembledTrainsDoNotAlias(t *testing.T) {
	snapshot := func(c *Connection) ([]*packet.Packet, []Direction) {
		return append([]*packet.Packet(nil), c.Packets...), append([]Direction(nil), c.Dirs...)
	}
	same := func(what string, c *Connection, pkts []*packet.Packet, dirs []Direction) {
		t.Helper()
		if len(c.Packets) != len(pkts) || len(c.Dirs) != len(dirs) {
			t.Fatalf("%s: train is %d packets, %d directions; was %d, %d", what, len(c.Packets), len(c.Dirs), len(pkts), len(dirs))
		}
		for i := range pkts {
			if c.Packets[i] != pkts[i] || c.Dirs[i] != dirs[i] {
				t.Fatalf("%s: packet %d changed", what, i)
			}
		}
	}
	extra := func(i int) *packet.Packet {
		return mkPkt(cIP, sIP, 1111, 80, packet.ACK, uint32(1000+i), time.Second)
	}

	var fed []*Connection
	a := NewAssembler(func(c *Connection) { fed = append(fed, c) })
	capture := interleave(handshake(1111, 0), handshake(2222, time.Microsecond))
	a.Feed(capture...)
	a.Flush()
	for name, conns := range map[string][]*Connection{"Assemble": Assemble(capture), "Assembler": fed} {
		c, neighbour := conns[0], conns[1]
		if cap(c.Packets) <= len(c.Packets) {
			t.Fatalf("%s: an assembled train has no room to spare; the test needs some", name)
		}
		pkts, dirs := snapshot(c)
		npkts, ndirs := snapshot(neighbour)

		d := c.Clone()
		d.Append(extra(0), ServerToClient)
		d.InsertAt(1, extra(1), ServerToClient)
		same(name+": appending to a clone, the original", c, pkts, dirs)

		dp, dd := snapshot(d)
		for i := 0; i < 2*slotPackets; i++ {
			c.Append(extra(i), ClientToServer)
		}
		same(name+": appending to the original, its clone", d, dp, dd)
		same(name+": appending to one flow, its neighbour", neighbour, npkts, ndirs)
		same(name+": the original's first packets", &Connection{Packets: c.Packets[:len(pkts)], Dirs: c.Dirs[:len(dirs)]}, pkts, dirs)
	}
}
