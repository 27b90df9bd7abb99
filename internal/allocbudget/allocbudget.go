// Package allocbudget pins allocation counts inside go test, so that an
// allocation creeping back onto the ingest → features path fails tier-1
// rather than only moving a benchmark number. The budget tests are all named
// TestAllocBudget…, which is how CI re-reports them.
package allocbudget

import "testing"

// AtMost fails t when fn allocates more than budget times per call, averaged
// over enough calls for pools to reach their steady state. Under the race
// detector the counts include the detector's own, so the test is skipped.
func AtMost(t *testing.T, budget float64, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not the program's own under -race")
	}
	if got := testing.AllocsPerRun(200, fn); got > budget {
		t.Errorf("%.2f allocations per run, budget %.2f", got, budget)
	}
}
