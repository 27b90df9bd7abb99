package features

import (
	"testing"

	"clap/internal/allocbudget"
)

// TestAllocBudgetVectorize: vectorising allocates per connection — the
// slab and its row headers — whatever the connection's length, and nothing
// per packet (no re-serialisation for the checksum features, no map).
func TestAllocBudgetVectorize(t *testing.T) {
	conns := benignConns(20, 3)
	prof := FitProfile(conns)
	packets := 0
	for _, c := range conns {
		packets += c.Len()
	}
	if packets < 10*len(conns) {
		t.Fatalf("corpus of %d packets in %d connections cannot tell per-packet from per-connection", packets, len(conns))
	}
	allocbudget.AtMost(t, float64(2*len(conns)), func() {
		for _, c := range conns {
			prof.Vectorize(c)
		}
	})
}
