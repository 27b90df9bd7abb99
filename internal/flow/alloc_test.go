package flow

import (
	"testing"

	"clap/internal/allocbudget"
)

// TestAllocBudgetAssemblerFeed: a one-packet Feed(p) allocates nothing of
// its own — the variadic block does not escape — so feeding a capture
// costs only its connections: a slot and a Connection each, and the
// doublings of their packet trains. The 34-packet fixture's four
// connections come to 32.
func TestAllocBudgetAssemblerFeed(t *testing.T) {
	pkts := testCapture()
	a := NewAssembler(func(*Connection) {})
	allocbudget.AtMost(t, 32, func() {
		for _, p := range pkts {
			a.Feed(p)
		}
		a.Flush()
	})
}
