package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// artifact mirrors the JSON BenchmarkBackendThroughput writes. Batch is
// absent in pre-PR4 snapshots (those rows are the unbatched path).
// Lockstep is set only on rows of snapshots taken while the engine could
// step GRU recurrences across connections (BENCH_pr9.json); that mode is
// gone, so best never selects those rows.
type artifact struct {
	PR         int      `json:"pr"`
	Profile    string   `json:"profile"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Results    []sample `json:"results"`
}

type sample struct {
	Backend    string  `json:"backend"`
	Workers    int     `json:"workers"`
	Batch      int     `json:"batch,omitempty"`
	Lockstep   int     `json:"lockstep,omitempty"` // > 0: a row of the removed cross-connection mode
	PktsPerSec float64 `json:"pkts_per_sec"`
}

func readArtifact(path string) (*artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(a.Results) == 0 {
		return nil, fmt.Errorf("%s holds no bench results", path)
	}
	return &a, nil
}

// verdict is one gate evaluation.
type verdict struct {
	Baseline  float64  // baseline pkts/s (best matching cell of the old artifact)
	Best      float64  // best matching pkts/s in the new artifact
	BestBatch int      // batch size of that best sample
	Speedup   float64  // Best / Baseline
	Failures  []string // non-nil when the gate fails
}

// best returns the highest-throughput sample for one backend/workers cell
// across its batch variants, skipping rows of the removed cross-connection
// mode; ok is false when the cell is absent.
func best(a *artifact, backendTag string, workers int) (sample, bool) {
	var top sample
	found := false
	for _, s := range a.Results {
		if s.Backend != backendTag || s.Workers != workers || s.Lockstep > 0 {
			continue
		}
		if !found || s.PktsPerSec > top.PktsPerSec {
			top, found = s, true
		}
	}
	return top, found
}

// gate compares the fresh artifact against the baseline for one
// backend/workers cell.
func gate(oldArt, newArt *artifact, backendTag string, workers int, maxRegress, minSpeedup float64) (verdict, error) {
	base, ok := best(oldArt, backendTag, workers)
	if !ok {
		return verdict{}, fmt.Errorf("baseline has no %s workers=%d sample", backendTag, workers)
	}
	top, ok := best(newArt, backendTag, workers)
	if !ok {
		return verdict{}, fmt.Errorf("fresh artifact has no %s workers=%d sample", backendTag, workers)
	}
	v := verdict{Baseline: base.PktsPerSec, Best: top.PktsPerSec, BestBatch: top.Batch,
		Speedup: top.PktsPerSec / base.PktsPerSec}
	if floor := base.PktsPerSec * (1 - maxRegress); top.PktsPerSec < floor {
		v.Failures = append(v.Failures, fmt.Sprintf(
			"REGRESSION: %.0f pkts/s is below the %.0f floor (baseline %.0f, max regress %.0f%%)",
			top.PktsPerSec, floor, base.PktsPerSec, maxRegress*100))
	}
	if minSpeedup > 0 && v.Speedup < minSpeedup {
		v.Failures = append(v.Failures, fmt.Sprintf(
			"SPEEDUP FLOOR: %.2fx is below the required %.2fx", v.Speedup, minSpeedup))
	}
	return v, nil
}

// ratioVerdict is one cross-backend ratio evaluation inside a single
// artifact.
type ratioVerdict struct {
	Num, Den float64  // pkts/s of the numerator and denominator backends
	Ratio    float64  // Num / Den
	Failures []string // non-nil when the floor is not met
}

// ratioGate asserts that backend numTag's throughput is at least minRatio
// times backend denTag's within one artifact (same worker count, best
// across batch variants) — e.g. the cascade's required serial speedup
// over pure clap on the benign-heavy profile.
func ratioGate(a *artifact, numTag, denTag string, workers int, minRatio float64) (ratioVerdict, error) {
	num, ok := best(a, numTag, workers)
	if !ok {
		return ratioVerdict{}, fmt.Errorf("artifact has no %s workers=%d sample", numTag, workers)
	}
	den, ok := best(a, denTag, workers)
	if !ok {
		return ratioVerdict{}, fmt.Errorf("artifact has no %s workers=%d sample", denTag, workers)
	}
	v := ratioVerdict{Num: num.PktsPerSec, Den: den.PktsPerSec, Ratio: num.PktsPerSec / den.PktsPerSec}
	if minRatio > 0 && v.Ratio < minRatio {
		v.Failures = append(v.Failures, fmt.Sprintf(
			"RATIO FLOOR: %s is %.2fx %s (%.0f vs %.0f pkts/s), below the required %.2fx",
			numTag, v.Ratio, denTag, v.Num, v.Den, minRatio))
	}
	return v, nil
}
