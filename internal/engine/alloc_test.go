package engine

import (
	"testing"

	"clap/internal/allocbudget"
	"clap/internal/backend"
	"clap/internal/flow"
)

// TestAllocBudgetStream pins a stream's Submit → emit round trip at what
// the batcher allocates and nothing more: each connection's series
// (Outcome.Errs) and each batch's errors, per lane — for a cascade, the
// screen's and, when the connection escalates, the verdict stage's. The
// stream's own jobs are reused, so once the window has been as deep as it
// gets it adds none. One connection is in flight at a time, so each one's
// windows fill ⌈windows / batch⌉ batches of their own, which cost counts.
func TestAllocBudgetStream(t *testing.T) {
	conns := genConns(12, 61)
	eng := New(Options{Workers: 2})
	cost := func(b backend.Backend, c *flow.Connection) (allocs float64, errs []float64) {
		bs := b.(backend.BatchScorer)
		wins := bs.Windows(c)
		if len(wins) > 0 {
			errs = bs.ScoreWindows(wins)
			allocs = float64(1 + (len(wins)+eng.batch-1)/eng.batch)
		}
		b.(backend.BatchRecycler).RecycleWindows(wins)
		return allocs, errs
	}
	roundTrip := func(t *testing.T, b backend.Backend, budget float64) {
		emitted := make(chan struct{})
		s := NewStreamOf(eng, b,
			func(*flow.Connection) (backend.Backend, struct{}) { return b, struct{}{} },
			func(*flow.Connection, backend.Backend, *struct{}, Outcome) {},
			func(*flow.Connection, struct{}) { emitted <- struct{}{} }, StreamHooks{})
		defer s.Close()
		allocbudget.AtMost(t, budget, func() {
			for _, c := range conns {
				s.Submit(c)
				<-emitted
			}
		})
	}

	t.Run("clap", func(t *testing.T) {
		b := backend.FromDetector(tinyDetector(t))
		budget := 0.0
		for _, c := range conns {
			n, _ := cost(b, c)
			budget += n
		}
		roundTrip(t, b, budget)
	})
	t.Run("cascade", func(t *testing.T) {
		casc := testCascade(t, 0.3, 0, conns, 0.5)
		s1, s2 := casc.Stages()
		budget, escalated := 0.0, 0
		for _, c := range conns {
			n, e1 := cost(s1, c)
			budget += n
			if esc, _ := casc.Route(e1); esc {
				escalated++
				n, _ = cost(s2, c)
				budget += n
			}
		}
		if escalated == 0 || escalated == len(conns) {
			t.Fatalf("%d of %d connections escalate; the budget should see both routes", escalated, len(conns))
		}
		roundTrip(t, casc, budget)
	})
}
