package pcapio

import (
	"bytes"
	"testing"

	"clap/internal/allocbudget"
)

// TestAllocBudgetReadPackets: reading a capture allocates what decoding its
// packets allocates — one for a packet with its options — plus
// a fixed handful for the reader, its buffers and the growing result; the
// record header and the frame never cost anything per record.
func TestAllocBudgetReadPackets(t *testing.T) {
	const rounds = 100
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeEthernet)
	decodeAllocs := 0
	for i := 0; i < rounds; i++ {
		for _, p := range samplePackets(t) {
			if err := w.WritePacket(p); err != nil {
				t.Fatal(err)
			}
			decodeAllocs++
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The bytes.Reader, the Reader, its bufio.Reader and 64 KiB buffer, the
	// frame buffer's few growths, and the packet slice's doublings.
	const fixed = 20
	allocbudget.AtMost(t, float64(decodeAllocs+fixed), func() {
		pkts, skipped, err := ReadPackets(bytes.NewReader(raw))
		if err != nil || skipped != 0 || len(pkts) != 3*rounds {
			t.Fatalf("ReadPackets = %d packets, %d skipped, %v", len(pkts), skipped, err)
		}
	})
}
