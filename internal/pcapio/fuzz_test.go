package pcapio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"clap/internal/attacks"
	"clap/internal/packet"
	"clap/internal/trafficgen"
)

// readCounter counts the Read calls made on the reader it wraps.
type readCounter struct {
	r     io.Reader
	calls int
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.calls++
	return c.r.Read(p)
}

// captureOf writes packets as a pcap of the given link type.
func captureOf(t testing.TB, linkType uint32, pkts []*packet.Packet) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf, linkType)
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReader holds the reader to three properties on arbitrary bytes: it
// never panics; a record NextBuffered reports buffered is read without a
// single Read on the underlying reader, so a live loop that hands off
// before an unbuffered record never blocks with packets in hand; and the
// NextBuffered + ReadPacket loop yields exactly ReadPackets' packets, skip
// count and error. Seeds: a trafficgen capture, one capture per strategy
// whose packets all decode, and truncated and oversize records.
func FuzzReader(f *testing.F) {
	cfg := trafficgen.DefaultConfig(8)
	cfg.Seed = 5
	benign := trafficgen.Generate(cfg)
	var all []*packet.Packet
	for _, c := range benign {
		all = append(all, c.Packets...)
	}
	whole := captureOf(f, LinkTypeEthernet, all)
	f.Add(whole)
	rng := rand.New(rand.NewSource(5))
	for i, s := range attacks.All() {
		c := benign[i%len(benign)].Clone()
		s.Apply(c, rng)
		raw := captureOf(f, LinkTypeRaw, c.Packets)
		if _, skipped, err := ReadPackets(bytes.NewReader(raw)); err == nil && skipped == 0 {
			f.Add(raw)
		}
	}
	f.Add(whole[:len(whole)-7]) // a truncated body
	f.Add(whole[:24+9])         // a truncated record header
	oversize := append([]byte(nil), whole[:24+16]...)
	binary.LittleEndian.PutUint32(oversize[24+8:], maxRecordLen+1)
	f.Add(oversize)

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantSkipped, wantErr := ReadPackets(bytes.NewReader(data))
		rc := &readCounter{r: bytes.NewReader(data)}
		rd, err := NewReader(rc)
		if err != nil {
			if wantErr == nil {
				t.Fatalf("NewReader: %v, but ReadPackets read the stream", err)
			}
			return
		}
		var got []*packet.Packet
		skipped := 0
		for {
			buffered := rd.NextBuffered()
			calls := rc.calls
			var p *packet.Packet
			p, err = rd.ReadPacket()
			if buffered && rc.calls != calls {
				t.Fatalf("record %d: NextBuffered reported it buffered, then ReadPacket made %d Read calls",
					len(got)+skipped, rc.calls-calls)
			}
			if err == io.EOF {
				err = nil
				break
			}
			if err != nil {
				break
			}
			if p == nil {
				skipped++
			} else {
				got = append(got, p)
			}
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("loop ended with %v, ReadPackets with %v", err, wantErr)
		}
		if skipped != wantSkipped || len(got) != len(want) {
			t.Fatalf("loop read %d packets, %d skipped; ReadPackets %d, %d", len(got), skipped, len(want), wantSkipped)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("packet %d differs:\n loop %#v\n ReadPackets %#v", i, got[i], want[i])
			}
		}
	})
}
