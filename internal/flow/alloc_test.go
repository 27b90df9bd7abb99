package flow

import (
	"reflect"
	"strconv"
	"testing"

	"clap/internal/allocbudget"
)

// TestAllocBudgetAssemblerFeed: a one-packet Feed(p) allocates nothing of
// its own — the variadic block does not escape — so feeding a capture
// costs only its flows: one slot each, holding the Connection and its
// first slotPackets packets, plus a doubling of the packet and direction
// trains for a flow that outgrows them. The 34-packet fixture's flows
// carry 11, 6, 9 and 8 packets: 4 slots and the 11-packet flow's 2
// doublings.
func TestAllocBudgetAssemblerFeed(t *testing.T) {
	pkts := testCapture()
	a := NewAssembler(func(*Connection) {})
	allocbudget.AtMost(t, 6, func() {
		for _, p := range pkts {
			a.Feed(p)
		}
		a.Flush()
	})
}

// TestAllocBudgetAssemble: the batch path pays the same per flow as the
// Assembler, plus the doublings of the slice it returns (three for four
// connections); at this size the map of open flows stays on the stack.
func TestAllocBudgetAssemble(t *testing.T) {
	pkts := testCapture()
	allocbudget.AtMost(t, 6+3, func() {
		if got := Assemble(pkts); len(got) != 4 {
			t.Fatalf("Assemble = %d connections, want 4", len(got))
		}
	})
}

// TestSlotFillsSizeClass: a slot's packet room is sized so the slot fills
// the runtime's 256-byte size class on 64-bit platforms, leaving no
// rounding unused.
func TestSlotFillsSizeClass(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("sizes are laid out for 64-bit platforms")
	}
	if got := reflect.TypeOf(slot{}).Size(); got != 256 {
		t.Errorf("slot is %d bytes, want 256 (a size class)", got)
	}
}
