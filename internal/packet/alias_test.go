package packet_test

import (
	"bytes"
	"testing"

	"clap/internal/allocbudget"
	"clap/internal/packet"
)

// optionRich is the wire form of a SYN carrying IP options and five TCP
// options with data, so every sub-slice of the packet's option buffer has a
// neighbour on both sides.
func optionRich(t testing.TB) []byte {
	p := packet.NewBuilder([4]byte{10, 0, 0, 9}, [4]byte{192, 0, 2, 9}, 50000, 443).
		Seq(7).Flags(packet.SYN).MSS(1460).WScale(7).SACKPermitted().Timestamps(0x01020304, 0x05060708).
		Option(packet.OptUserTimeout, []byte{0x80, 0x10}).Build()
	p.IP.Options = []byte{0x94, 0x04, 0x00, 0x00} // router alert
	raw, err := p.Encode(packet.SerializeOptions{FixLengths: true, ComputeChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func wire(t *testing.T, p *packet.Packet) []byte {
	t.Helper()
	raw, err := p.Encode(packet.SerializeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestOptionBytesDoNotAlias: the option bytes of a decoded (or cloned)
// packet share one buffer inside the packet's allocation. Nothing a caller
// does through one slice — write, append, remove — may show through
// another, in the same packet or in the packet it was cloned from.
func TestOptionBytesDoNotAlias(t *testing.T) {
	raw := optionRich(t)
	decode := func() *packet.Packet {
		p, err := packet.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	t.Run("three-index slices", func(t *testing.T) {
		for _, p := range []*packet.Packet{decode(), decode().Clone()} {
			if cap(p.IP.Options) != len(p.IP.Options) {
				t.Errorf("IP.Options has %d spare bytes of capacity", cap(p.IP.Options)-len(p.IP.Options))
			}
			for _, o := range p.TCP.Options {
				if cap(o.Data) != len(o.Data) {
					t.Errorf("option %d Data has %d spare bytes of capacity", o.Kind, cap(o.Data)-len(o.Data))
				}
			}
		}
	})

	t.Run("decode keeps nothing of its input", func(t *testing.T) {
		in := append([]byte(nil), raw...)
		p, err := packet.Decode(in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range in {
			in[i] = 0xee
		}
		if !bytes.Equal(wire(t, p), raw) {
			t.Error("scribbling over Decode's input changed the packet")
		}
	})

	t.Run("clone", func(t *testing.T) {
		p := decode()
		q := p.Clone()
		for i := range q.IP.Options {
			q.IP.Options[i] ^= 0xff
		}
		for _, o := range q.TCP.Options {
			for i := range o.Data {
				o.Data[i] ^= 0xff
			}
		}
		q.Payload = append(q.Payload, 1, 2, 3)
		if !bytes.Equal(wire(t, p), raw) {
			t.Error("writing through a clone's option bytes changed the original")
		}
		if bytes.Equal(wire(t, q), raw) {
			t.Error("the clone did not change")
		}
	})

	t.Run("append to one option", func(t *testing.T) {
		p := decode()
		for i := range p.TCP.Options {
			q := decode()
			o := &q.TCP.Options[i]
			if o.Data == nil {
				continue
			}
			o.Data = append(o.Data, 0xaa, 0xbb, 0xcc, 0xdd)
			for j := range p.TCP.Options {
				if j != i && !bytes.Equal(q.TCP.Options[j].Data, p.TCP.Options[j].Data) {
					t.Errorf("appending to option %d changed option %d: %x, was %x", i, j, q.TCP.Options[j].Data, p.TCP.Options[j].Data)
				}
			}
			if !bytes.Equal(q.IP.Options, p.IP.Options) {
				t.Errorf("appending to option %d changed the IP options", i)
			}
		}
		q := decode()
		q.IP.Options = append(q.IP.Options, 0x01, 0x01, 0x01, 0x01)
		for j := range p.TCP.Options {
			if !bytes.Equal(q.TCP.Options[j].Data, p.TCP.Options[j].Data) {
				t.Errorf("appending to the IP options changed TCP option %d", j)
			}
		}
	})

	t.Run("append to the option list", func(t *testing.T) {
		// A packet whose one option leaves room in its class's list, and
		// one that fills it: either way the list's capacity ends with it,
		// so a grown list is a new array.
		mss, err := packet.NewBuilder([4]byte{10, 0, 0, 9}, [4]byte{192, 0, 2, 9}, 50000, 443).
			Flags(packet.SYN).MSS(1460).Build().Encode(packet.SerializeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range [][]byte{raw, mss} {
			p, err := packet.Decode(in)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []*packet.Packet{p, p.Clone()} {
				opts := q.TCP.Options
				if cap(opts) != len(opts) {
					t.Fatalf("TCP.Options has %d spare options of capacity", cap(opts)-len(opts))
				}
				grown := append(opts, packet.Option{Kind: packet.OptMD5, Data: make([]byte, 16)})
				for i := range grown {
					grown[i] = packet.Option{Kind: packet.OptNOP}
				}
				if !bytes.Equal(wire(t, q), in) {
					t.Error("writing through a grown option list changed the packet")
				}
				if !bytes.Equal(wire(t, p), in) {
					t.Error("writing through a clone's grown option list changed the original")
				}
			}
		}
	})

	t.Run("remove option", func(t *testing.T) {
		p := decode()
		q := p.Clone()
		if !q.TCP.RemoveOption(packet.OptWindowScale) || !q.TCP.RemoveOption(packet.OptTimestamps) {
			t.Fatal("options to remove not found")
		}
		if !bytes.Equal(wire(t, p), raw) {
			t.Error("removing a clone's options changed the original")
		}
		if mss, ok := q.TCP.MSSVal(); !ok || mss != 1460 {
			t.Errorf("MSS after removing its neighbours = %d, %v", mss, ok)
		}
		if uto, ok := q.TCP.UserTimeoutVal(); !ok || uto != 0x8010 {
			t.Errorf("user timeout after removing its neighbours = %#x, %v", uto, ok)
		}
		if q.TCP.FindOption(packet.OptWindowScale) != nil || q.TCP.FindOption(packet.OptTimestamps) != nil {
			t.Error("removed options still present")
		}
	})
}

// TestAllocBudgetDecode: a packet is one allocation with its option list
// and option bytes, whatever options it carries; the benchmark's captures
// are payload-stripped, and a stored payload is one more.
func TestAllocBudgetDecode(t *testing.T) {
	withOptions := optionRich(t)
	bare, err := packet.NewBuilder([4]byte{10, 0, 0, 9}, [4]byte{192, 0, 2, 9}, 50000, 443).
		Seq(7).Ack(9).Flags(packet.ACK).Build().Encode(packet.SerializeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A Linux-style SYN: MSS, window scale, SACK-permitted, timestamps and
	// the EOL padding them, five options.
	syn, err := packet.NewBuilder([4]byte{10, 0, 0, 9}, [4]byte{192, 0, 2, 9}, 50000, 443).
		Seq(7).Flags(packet.SYN).MSS(1460).WScale(7).SACKPermitted().Timestamps(1, 0).
		Build().Encode(packet.SerializeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p, err := packet.Decode(syn); err != nil || len(p.TCP.Options) != 5 {
		t.Fatalf("SYN fixture decodes to %v, %v; want five options", p, err)
	}
	decode := func(raw []byte) func() {
		return func() {
			if _, err := packet.Decode(raw); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("options", func(t *testing.T) { allocbudget.AtMost(t, 1, decode(withOptions)) })
	t.Run("five-option SYN", func(t *testing.T) { allocbudget.AtMost(t, 1, decode(syn)) })
	t.Run("no options", func(t *testing.T) { allocbudget.AtMost(t, 1, decode(bare)) })
	t.Run("payload", func(t *testing.T) {
		allocbudget.AtMost(t, 2, decode(append(append([]byte(nil), withOptions...), make([]byte, 100)...)))
	})
	t.Run("junk", func(t *testing.T) {
		// Rejected before the packet is allocated; the error is the cost.
		allocbudget.AtMost(t, 2, func() { packet.Decode(withOptions[:30]) })
	})
	p, _ := packet.Decode(withOptions)
	t.Run("validators", func(t *testing.T) {
		allocbudget.AtMost(t, 0, func() {
			if !p.IPChecksumValid() || !p.TCPChecksumValid() {
				t.Fatal("checksums invalid")
			}
		})
	})
}
