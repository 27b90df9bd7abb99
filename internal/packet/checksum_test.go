package packet_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"clap/internal/attacks"
	"clap/internal/flow"
	"clap/internal/packet"
	"clap/internal/trafficgen"
)

// The reference implementations: the validators and FixChecksums as they
// were before the streaming sum — serialise the packet, zero-pad it to the
// claimed length, copy it behind a pseudo-header, sum the copy. They are
// the oracle for every malformed layout Encode handles.

func refTCPChecksum(src, dst [4]byte, segment []byte) uint16 {
	pseudo := make([]byte, 12, 12+len(segment))
	copy(pseudo[0:4], src[:])
	copy(pseudo[4:8], dst[:])
	pseudo[9] = packet.ProtoTCP
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(segment)))
	return packet.Checksum(append(pseudo, segment...))
}

func refIPChecksumValid(p *packet.Packet) bool {
	raw, err := p.Encode(packet.SerializeOptions{})
	if err != nil {
		return false
	}
	hdrLen := int(p.IP.IHL) * 4
	if hdrLen < 20 || hdrLen > len(raw) {
		hdrLen = 20 + len(p.IP.Options)
		if hdrLen > len(raw) {
			return false
		}
	}
	binary.BigEndian.PutUint16(raw[10:12], 0)
	return packet.Checksum(raw[:hdrLen]) == p.IP.Checksum
}

func refTCPChecksumValid(p *packet.Packet) bool {
	raw, err := p.Encode(packet.SerializeOptions{})
	if err != nil {
		return false
	}
	ipHdrLen := int(p.IP.IHL) * 4
	if ipHdrLen < 20 || ipHdrLen > len(raw) {
		ipHdrLen = 20 + len(p.IP.Options)
	}
	if ipHdrLen+20 > len(raw) {
		return false
	}
	seg := raw[ipHdrLen:]
	claimed := int(p.IP.TotalLen) - ipHdrLen
	if claimed > len(seg) && claimed <= 65535 {
		seg = append(seg, make([]byte, claimed-len(seg))...)
	}
	binary.BigEndian.PutUint16(seg[16:18], 0)
	return refTCPChecksum(p.IP.SrcIP, p.IP.DstIP, seg) == p.TCP.Checksum
}

func refFixChecksums(p *packet.Packet) error {
	raw, err := p.Encode(packet.SerializeOptions{})
	if err != nil {
		return err
	}
	ipHdrLen := int(p.IP.IHL) * 4
	if ipHdrLen < 20 || ipHdrLen > len(raw) {
		ipHdrLen = 20 + len(p.IP.Options)
	}
	hdr := raw[:ipHdrLen]
	binary.BigEndian.PutUint16(hdr[10:12], 0)
	p.IP.Checksum = packet.Checksum(hdr)

	seg := raw[ipHdrLen:]
	claimed := int(p.IP.TotalLen) - ipHdrLen
	if claimed > len(seg) && claimed <= 65535 {
		seg = append(seg, make([]byte, claimed-len(seg))...)
	}
	if len(seg) >= 18 {
		binary.BigEndian.PutUint16(seg[16:18], 0)
		p.TCP.Checksum = refTCPChecksum(p.IP.SrcIP, p.IP.DstIP, seg)
	}
	return nil
}

// checkAgainstReference asserts streaming == reference on p as it stands,
// after FixChecksums (which must store what the reference stores), and with
// each stored checksum then knocked off by one.
func checkAgainstReference(t *testing.T, name string, p *packet.Packet) {
	t.Helper()
	same := func(stage string, p *packet.Packet) {
		t.Helper()
		if got, want := p.IPChecksumValid(), refIPChecksumValid(p); got != want {
			t.Errorf("%s (%s): IPChecksumValid = %v, reference %v: %v", name, stage, got, want, p)
		}
		if got, want := p.TCPChecksumValid(), refTCPChecksumValid(p); got != want {
			t.Errorf("%s (%s): TCPChecksumValid = %v, reference %v: %v", name, stage, got, want, p)
		}
	}
	same("as is", p)

	fixed, ref := p.Clone(), p.Clone()
	err, refErr := fixed.FixChecksums(), refFixChecksums(ref)
	if (err == nil) != (refErr == nil) || (err != nil && !errors.Is(err, packet.ErrOptionSpace)) {
		t.Fatalf("%s: FixChecksums = %v, reference %v", name, err, refErr)
	}
	if fixed.IP.Checksum != ref.IP.Checksum || fixed.TCP.Checksum != ref.TCP.Checksum {
		t.Errorf("%s: FixChecksums stored ip=%#04x tcp=%#04x, reference ip=%#04x tcp=%#04x",
			name, fixed.IP.Checksum, fixed.TCP.Checksum, ref.IP.Checksum, ref.TCP.Checksum)
	}
	same("fixed", fixed)
	if err == nil && !fixed.IPChecksumValid() {
		t.Errorf("%s: IP checksum invalid straight after FixChecksums", name)
	}
	fixed.IP.Checksum++
	fixed.TCP.Checksum--
	same("off by one", fixed)
}

func corpus(n int, seed int64) []*flow.Connection {
	cfg := trafficgen.DefaultConfig(n)
	cfg.Seed = seed
	return trafficgen.Generate(cfg)
}

// TestStreamingChecksumsMatchReference runs every packet of a trafficgen
// corpus, with each of the 73 strategies applied in memory — including the
// eight IHL / Data Offset ones a capture cannot carry — past both
// implementations.
func TestStreamingChecksumsMatchReference(t *testing.T) {
	benign := corpus(30, 11)
	rng := rand.New(rand.NewSource(11))
	packets, adversarial := 0, 0
	for i, s := range attacks.All() {
		for k := 0; k < 3; k++ {
			c := benign[(3*i+k)%len(benign)].Clone()
			s.Apply(c, rng)
			adversarial += len(c.AdvIdx)
			for j, p := range c.Packets {
				checkAgainstReference(t, fmt.Sprintf("%s #%d", s.Name, j), p)
				packets++
			}
		}
	}
	if packets < 1000 || adversarial < 150 {
		t.Fatalf("corpus too thin: %d packets, %d adversarial", packets, adversarial)
	}
}

// TestStreamingChecksumsMalformedLayouts covers what no strategy produces:
// the layouts Encode only reaches through hand-corrupted fields.
func TestStreamingChecksumsMalformedLayouts(t *testing.T) {
	base := func() *packet.Packet {
		return packet.NewBuilder([4]byte{10, 1, 2, 3}, [4]byte{192, 0, 2, 77}, 40321, 443).
			Seq(0xfffffff0).Ack(77).Flags(packet.PSH|packet.ACK).
			MSS(1460).Timestamps(0xdeadbeef, 0x01020304).PayloadLen(100).Build()
	}
	bytesOf := func(n int, start byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = start + byte(i)*7
		}
		return b
	}
	cases := map[string]func(p *packet.Packet){
		"well formed": func(p *packet.Packet) {},
	}
	for _, n := range []int{1, 2, 3, 99, 100, 101, 255} {
		cases[fmt.Sprintf("stored payload of %d bytes", n)] = func(p *packet.Packet) { p.Payload = bytesOf(n, 0x80) }
		cases[fmt.Sprintf("stored payload of %d bytes, no claimed length", n)] = func(p *packet.Packet) {
			p.Payload = bytesOf(n, 0xf1)
			p.IP.TotalLen = 0
		}
	}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 39, 40} {
		for _, ihl := range []uint8{0, 4, 5, 6, 7, 15} {
			cases[fmt.Sprintf("%d IP option bytes under IHL %d", n, ihl)] = func(p *packet.Packet) {
				p.IP.Options = bytesOf(n, 0x90)
				p.IP.IHL = ihl
			}
		}
		cases[fmt.Sprintf("%d IP option bytes, odd payload, bogus IHL", n)] = func(p *packet.Packet) {
			p.IP.Options = bytesOf(n, 0x11)
			p.IP.IHL = 3
			p.Payload = bytesOf(33, 0xa0)
		}
	}
	for _, off := range []uint8{0, 2, 4, 5, 6, 7, 8, 9, 15} {
		cases[fmt.Sprintf("Data Offset %d over 16 option bytes", off)] = func(p *packet.Packet) { p.TCP.DataOffset = off }
		cases[fmt.Sprintf("Data Offset %d over 16 option bytes and payload", off)] = func(p *packet.Packet) {
			p.TCP.DataOffset = off
			p.Payload = bytesOf(21, 0x55)
		}
		cases[fmt.Sprintf("Data Offset %d, no options", off)] = func(p *packet.Packet) {
			p.TCP.DataOffset = off
			p.TCP.Options = nil
		}
	}
	cases["odd option bytes"] = func(p *packet.Packet) {
		p.TCP.Options = []packet.Option{{Kind: packet.OptWindowScale, Data: []byte{0xff}}, {Kind: packet.OptNOP}, {Kind: 77, Data: bytesOf(5, 0xe0)}}
		p.TCP.DataOffset = 8
	}
	cases["EOL mid-list"] = func(p *packet.Packet) {
		p.TCP.Options = []packet.Option{{Kind: packet.OptEndOfList}, {Kind: packet.OptMD5, Data: bytesOf(16, 0xc0)}}
		p.TCP.DataOffset = 15
	}
	cases["options past the header's option space"] = func(p *packet.Packet) {
		p.TCP.Options = []packet.Option{{Kind: packet.OptMD5, Data: bytesOf(16, 1)}, {Kind: 254, Data: bytesOf(30, 2)}}
		p.TCP.DataOffset = 2
	}
	cases["option longer than its length byte"] = func(p *packet.Packet) {
		p.TCP.Options = []packet.Option{{Kind: 200, Data: bytesOf(300, 3)}}
		p.TCP.DataOffset = 0
	}
	for _, total := range []uint16{0, 19, 20, 39, 40, 41, 56, 57, 1500, 65535} {
		cases[fmt.Sprintf("TotalLen %d", total)] = func(p *packet.Packet) { p.IP.TotalLen = total }
		cases[fmt.Sprintf("TotalLen %d, stored payload", total)] = func(p *packet.Packet) {
			p.IP.TotalLen = total
			p.Payload = bytesOf(61, 0x42)
		}
	}
	cases["IHL 15 over no options"] = func(p *packet.Packet) { p.IP.IHL = 15 }
	cases["IHL beyond its 4 bits"] = func(p *packet.Packet) { p.IP.IHL = 0x46 }
	cases["Data Offset beyond its 4 bits"] = func(p *packet.Packet) { p.TCP.DataOffset = 0x1f }
	cases["version beyond its 4 bits"] = func(p *packet.Packet) { p.IP.Version = 0xf5 }
	cases["every flag and reserved bit"] = func(p *packet.Packet) {
		p.TCP.Flags = 0xffff
		p.TCP.Reserved = 0xff
		p.IP.Reserved, p.IP.MoreFrag, p.IP.FragOffset = true, true, 0xffff
	}
	cases["segment past the pseudo-header's 16-bit length"] = func(p *packet.Packet) { p.Payload = bytesOf(70001, 0x30) }
	cases["all-ones payload past the 32-bit accumulator"] = func(p *packet.Packet) {
		p.Payload = make([]byte, 140001)
		for i := range p.Payload {
			p.Payload[i] = 0xff
		}
	}
	for name, mutate := range cases {
		p := base()
		mutate(p)
		checkAgainstReference(t, name, p)
	}
}

// TestEncodeComputeChecksums pins Encode's own checksums — over the bytes
// actually written, not the claimed length — to the reference sum.
func TestEncodeComputeChecksums(t *testing.T) {
	for _, c := range corpus(10, 3) {
		for _, p := range c.Packets {
			p = p.Clone()
			p.Payload = make([]byte, p.PayloadLen%97)
			raw, err := p.Encode(packet.SerializeOptions{FixLengths: true, ComputeChecksums: true})
			if err != nil {
				t.Fatal(err)
			}
			ihl := int(raw[0]&0x0f) * 4
			gotIP, gotTCP := binary.BigEndian.Uint16(raw[10:12]), binary.BigEndian.Uint16(raw[ihl+16:ihl+18])
			raw[10], raw[11], raw[ihl+16], raw[ihl+17] = 0, 0, 0, 0
			if want := packet.Checksum(raw[:ihl]); gotIP != want {
				t.Fatalf("Encode IP checksum %#04x, want %#04x: %v", gotIP, want, p)
			}
			if want := refTCPChecksum(p.IP.SrcIP, p.IP.DstIP, raw[ihl:]); gotTCP != want {
				t.Fatalf("Encode TCP checksum %#04x, want %#04x: %v", gotTCP, want, p)
			}
		}
	}
}

// FuzzDecode: Decode never panics on any bytes; what it accepts clones to
// an equal packet and re-encodes to bytes that decode to an equal packet;
// and the streaming validators agree with the reference on it. Seeded with
// the wire form of every strategy's adversarial packets.
//
// The one packet Decode yields that Encode refuses is an option block that
// does not parse: it is kept as a single kind-255 option, whose own
// kind/length header then no longer fits the Data Offset (ErrOptionSpace,
// so both validators report false — reference and streaming alike).
func FuzzDecode(f *testing.F) {
	benign := corpus(8, 5)
	rng := rand.New(rand.NewSource(5))
	for i, s := range attacks.All() {
		c := benign[i%len(benign)].Clone()
		s.Apply(c, rng)
		for _, j := range c.AdvIdx {
			if raw, err := c.Packets[j].Encode(packet.SerializeOptions{}); err == nil {
				f.Add(raw)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := packet.Decode(data)
		if err != nil {
			return
		}
		if got, want := p.IPChecksumValid(), refIPChecksumValid(p); got != want {
			t.Fatalf("IPChecksumValid = %v, reference %v: %v", got, want, p)
		}
		if got, want := p.TCPChecksumValid(), refTCPChecksumValid(p); got != want {
			t.Fatalf("TCPChecksumValid = %v, reference %v: %v", got, want, p)
		}
		if c := p.Clone(); !reflect.DeepEqual(p, c) {
			t.Fatalf("Clone changed the packet:\n   got %#v\ndecoded %#v", c, p)
		}
		raw, err := p.Encode(packet.SerializeOptions{})
		if err != nil {
			if verbatim := len(p.TCP.Options) == 1 && p.TCP.Options[0].Kind == 255; errors.Is(err, packet.ErrOptionSpace) && verbatim {
				return
			}
			t.Fatalf("decoded packet does not encode: %v: %v", err, p)
		}
		q, err := packet.Decode(raw)
		if err != nil {
			t.Fatalf("re-encoded packet does not decode: %v: %v", err, p)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the packet:\n first %#v\nsecond %#v", p, q)
		}
	})
}
