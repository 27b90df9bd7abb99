package afpacket

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"
)

func ts(sec, nsec int64) time.Time { return time.Unix(sec, nsec) }

func buildFrames(t testing.TB, frames ...[]byte) []byte {
	t.Helper()
	b := NewBlockBuilder()
	for i, f := range frames {
		b.Append(ts(1700000000+int64(i), int64(i)*1000), f, len(f)+7)
	}
	return b.Bytes()
}

func TestBlockBuilderRoundTrip(t *testing.T) {
	frames := [][]byte{
		bytes.Repeat([]byte{0xaa}, 60),
		bytes.Repeat([]byte{0xbb}, 1),
		bytes.Repeat([]byte{0xcc}, 1500),
	}
	block := buildFrames(t, frames...)

	var got []Frame
	n, err := ParseBlock(block, func(f Frame) {
		// Copy: Frame.Data aliases the block by contract.
		got = append(got, Frame{Data: append([]byte(nil), f.Data...), Timestamp: f.Timestamp, OrigLen: f.OrigLen})
	})
	if err != nil {
		t.Fatalf("ParseBlock: %v", err)
	}
	if n != len(frames) {
		t.Fatalf("ParseBlock returned %d frames, want %d", n, len(frames))
	}
	for i, f := range got {
		if !bytes.Equal(f.Data, frames[i]) {
			t.Errorf("frame %d: data mismatch (%d bytes vs %d)", i, len(f.Data), len(frames[i]))
		}
		if want := ts(1700000000+int64(i), int64(i)*1000); !f.Timestamp.Equal(want) {
			t.Errorf("frame %d: timestamp %v, want %v", i, f.Timestamp, want)
		}
		if f.OrigLen != len(frames[i])+7 {
			t.Errorf("frame %d: OrigLen %d, want %d", i, f.OrigLen, len(frames[i])+7)
		}
	}
}

func TestParseBlockEmpty(t *testing.T) {
	block := NewBlockBuilder().Bytes()
	n, err := ParseBlock(block, func(Frame) { t.Fatal("emit called on empty block") })
	if n != 0 || err != nil {
		t.Fatalf("ParseBlock(empty) = %d, %v; want 0, nil", n, err)
	}
}

// corrupt returns a copy of block with the u32 at off overwritten.
func corrupt(block []byte, off int, v uint32) []byte {
	c := append([]byte(nil), block...)
	hostOrder.PutUint32(c[off:], v)
	return c
}

func TestParseBlockCorrupt(t *testing.T) {
	base := buildFrames(t, bytes.Repeat([]byte{1}, 40), bytes.Repeat([]byte{2}, 40))
	firstFrame := int(hostOrder.Uint32(base[offFirstPkt:]))

	cases := []struct {
		name      string
		block     []byte
		wantCount int // frames emitted before the corruption is hit
	}{
		{"short block", base[:20], 0},
		{"first offset into descriptor", corrupt(base, offFirstPkt, 4), 0},
		{"first offset past block", corrupt(base, offFirstPkt, uint32(len(base))), 0},
		{"num_pkts overruns block", corrupt(base, offNumPkts, 1000), 2},
		{"zero next offset mid-walk", corrupt(base, firstFrame+offNextOffset, 0), 1},
		{"snaplen escapes block", corrupt(base, firstFrame+offSnaplen, 1<<30), 0},
		{"snaplen wraps negative", corrupt(base, firstFrame+offSnaplen, 0xffffffff), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var emitted int
			n, err := ParseBlock(tc.block, func(f Frame) {
				emitted++
				// Emitted frames must still be in-bounds views.
				_ = f.Data
			})
			if !errors.Is(err, ErrBlockCorrupt) {
				t.Fatalf("ParseBlock = %d, %v; want ErrBlockCorrupt", n, err)
			}
			if n != emitted {
				t.Errorf("returned count %d != emitted %d", n, emitted)
			}
			if n != tc.wantCount {
				t.Errorf("emitted %d frames before failing, want %d", n, tc.wantCount)
			}
		})
	}
}

func TestSyntheticRing(t *testing.T) {
	b1 := buildFrames(t, []byte{1, 2, 3})
	b2 := buildFrames(t, []byte{4, 5})
	ring := NewSyntheticRing(b1, b2)
	defer ring.Close()

	ctx := context.Background()
	for i, want := range [][]byte{b1, b2} {
		got, release, err := ring.NextBlock(ctx)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: wrong bytes", i)
		}
		release()
	}
	if _, _, err := ring.NextBlock(ctx); err != io.EOF {
		t.Fatalf("after exhaustion: %v, want io.EOF", err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	fresh := NewSyntheticRing(b1)
	if _, _, err := fresh.NextBlock(cancelled); err != io.EOF {
		t.Fatalf("cancelled ctx: %v, want io.EOF", err)
	}
}

func TestIPv4Payload(t *testing.T) {
	ip := []byte{0x45, 0, 0, 20}
	eth := make([]byte, 14, 14+len(ip))
	eth[12], eth[13] = 0x08, 0x00
	eth = append(eth, ip...)

	got, ok := IPv4Payload(eth)
	if !ok || !bytes.Equal(got, ip) {
		t.Fatalf("IPv4Payload(ipv4 frame) = %v, %v", got, ok)
	}

	arp := append([]byte(nil), eth...)
	arp[12], arp[13] = 0x08, 0x06
	if _, ok := IPv4Payload(arp); ok {
		t.Fatal("IPv4Payload accepted an ARP frame")
	}
	if _, ok := IPv4Payload(eth[:10]); ok {
		t.Fatal("IPv4Payload accepted a runt frame")
	}
}

func TestDropPrivilegesRejectsRoot(t *testing.T) {
	for _, ids := range [][2]int{{0, 100}, {100, 0}, {-1, 100}} {
		if err := DropPrivileges(ids[0], ids[1]); err == nil {
			t.Errorf("DropPrivileges(%d, %d) accepted root/invalid ids", ids[0], ids[1])
		}
	}
}
