package core

import (
	"testing"

	"clap/internal/allocbudget"
)

// TestAllocBudgetStackedRoundTrip pins the batched window production of one
// connection — StackedProfilesBatched, then RecycleStacked — at its
// steady-state allocation count: none. Feature vectors, context profiles
// and windows all come from the pool, row headers included, and the pool
// keeps its slabs by value, so recycling them allocates nothing either.
func TestAllocBudgetStackedRoundTrip(t *testing.T) {
	d := testDetector(t)
	conns := benignSet(20, 5)
	roundTrip := func(d *Detector) func() {
		return func() {
			for _, c := range conns {
				d.RecycleStacked(d.StackedProfilesBatched(c))
			}
		}
	}
	t.Run("clap", func(t *testing.T) {
		// The batched GRU pass reads the vectors in place from a pooled
		// workspace.
		allocbudget.AtMost(t, 0, roundTrip(d))
	})
	t.Run("baseline1", func(t *testing.T) {
		// No gates, no stacking — the cascade's screen.
		screen := &Detector{Cfg: Baseline1Config(), Profile: d.Profile}
		allocbudget.AtMost(t, 0, roundTrip(screen))
	})
}
