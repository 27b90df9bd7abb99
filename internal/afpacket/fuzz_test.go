package afpacket

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"clap/internal/attacks"
	"clap/internal/packet"
	"clap/internal/trafficgen"
)

// etherFrame wraps an encoded IPv4 packet in the Ethernet header the pcap
// writer uses.
func etherFrame(raw []byte) []byte {
	frame := make([]byte, 0, etherHdrLen+len(raw))
	frame = append(frame, 0x02, 0, 0, 0, 0, 0x02, 0x02, 0, 0, 0, 0, 0x01, 0x08, 0x00)
	return append(frame, raw...)
}

// insideBlock reports whether data is a subslice of block's memory.
func insideBlock(block, data []byte) bool {
	start := cap(block) - cap(data)
	if start < 0 || start+len(data) > len(block) {
		return false
	}
	return len(data) == 0 || &block[start] == &data[0]
}

// FuzzParseBlock holds the TPACKETv3 block walk to four properties on
// arbitrary bytes: it never panics; every emitted frame's Data lies inside
// the block; it emits exactly the count it returns, never more than the
// declared num_pkts; and a block BlockBuilder builds from frames carved
// out of the input parses back to exactly those frames. Seeds: one block
// per attack strategy over a trafficgen connection, an empty block and a
// truncated one.
func FuzzParseBlock(f *testing.F) {
	cfg := trafficgen.DefaultConfig(8)
	cfg.Seed = 9
	benign := trafficgen.Generate(cfg)
	rng := rand.New(rand.NewSource(9))
	for i, s := range attacks.All() {
		c := benign[i%len(benign)].Clone()
		s.Apply(c, rng)
		bb := NewBlockBuilder()
		for _, p := range c.Packets {
			raw, err := p.Encode(packet.SerializeOptions{})
			if err != nil {
				continue
			}
			frame := etherFrame(raw)
			bb.Append(p.Timestamp, frame, len(frame))
		}
		f.Add(bb.Bytes())
	}
	f.Add(NewBlockBuilder().Bytes())
	whole := buildFrames(f, bytes.Repeat([]byte{1}, 40), bytes.Repeat([]byte{2}, 40))
	f.Add(whole[:len(whole)-20])

	f.Fuzz(func(t *testing.T, block []byte) {
		emitted := 0
		n, err := ParseBlock(block, func(fr Frame) {
			emitted++
			if !insideBlock(block, fr.Data) {
				t.Fatalf("frame %d: %d data bytes outside the %d-byte block", emitted-1, len(fr.Data), len(block))
			}
		})
		if n != emitted {
			t.Fatalf("returned %d frames, emitted %d", n, emitted)
		}
		if err == nil && len(block) < blockDescLen {
			t.Fatalf("%d-byte block parsed without error", len(block))
		}
		if len(block) >= blockDescLen && n > int(hostOrder.Uint32(block[offNumPkts:])) {
			t.Fatalf("emitted %d frames, block declares %d", n, hostOrder.Uint32(block[offNumPkts:]))
		}

		// Round trip: carve frames out of the input (a length byte, then
		// that many bytes), build a block from them, parse it back.
		var frames [][]byte
		for rest := block; len(rest) > 0; {
			k := min(int(rest[0]), len(rest)-1)
			frames = append(frames, rest[1:1+k])
			rest = rest[1+k:]
		}
		bb := NewBlockBuilder()
		at := func(i int) time.Time { return time.Unix(1700000000+int64(i), int64(i)*1000) }
		for i, fr := range frames {
			bb.Append(at(i), fr, len(fr)+i)
		}
		i := 0
		n, err = ParseBlock(bb.Bytes(), func(fr Frame) {
			if !bytes.Equal(fr.Data, frames[i]) || !fr.Timestamp.Equal(at(i)) || fr.OrigLen != len(frames[i])+i {
				t.Fatalf("built frame %d parsed back as %d bytes at %v (orig %d), built from %d bytes at %v",
					i, len(fr.Data), fr.Timestamp, fr.OrigLen, len(frames[i]), at(i))
			}
			i++
		})
		if err != nil || n != len(frames) {
			t.Fatalf("built block of %d frames parsed to %d: %v", len(frames), n, err)
		}
	})
}
