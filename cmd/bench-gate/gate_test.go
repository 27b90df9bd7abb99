package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func art(results ...sample) *artifact {
	return &artifact{PR: 4, Profile: "tiny", GOMAXPROCS: 1, Results: results}
}

func TestGatePassesOnSpeedup(t *testing.T) {
	oldArt := art(sample{Backend: "clap", Workers: 1, PktsPerSec: 10000})
	newArt := art(
		sample{Backend: "clap", Workers: 1, Batch: 1, PktsPerSec: 9500},
		sample{Backend: "clap", Workers: 1, Batch: 64, PktsPerSec: 25000},
	)
	v, err := gate(oldArt, newArt, "clap", 1, 0.10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Failures != nil {
		t.Fatalf("gate failed: %v", v.Failures)
	}
	if v.Best != 25000 || v.BestBatch != 64 {
		t.Fatalf("picked %v (batch %d), want the batched 25000 sample", v.Best, v.BestBatch)
	}
	if v.Speedup != 2.5 {
		t.Fatalf("speedup %v, want 2.5", v.Speedup)
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	oldArt := art(sample{Backend: "clap", Workers: 1, PktsPerSec: 10000})
	newArt := art(sample{Backend: "clap", Workers: 1, Batch: 64, PktsPerSec: 8000})
	v, err := gate(oldArt, newArt, "clap", 1, 0.10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Failures) != 1 || !strings.Contains(v.Failures[0], "REGRESSION") {
		t.Fatalf("failures = %v, want one REGRESSION", v.Failures)
	}
}

func TestGateFailsBelowSpeedupFloor(t *testing.T) {
	oldArt := art(sample{Backend: "clap", Workers: 1, PktsPerSec: 10000})
	newArt := art(sample{Backend: "clap", Workers: 1, Batch: 64, PktsPerSec: 15000})
	v, err := gate(oldArt, newArt, "clap", 1, 0.10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Failures) != 1 || !strings.Contains(v.Failures[0], "SPEEDUP FLOOR") {
		t.Fatalf("failures = %v, want one SPEEDUP FLOOR", v.Failures)
	}
}

func TestGateMissingCell(t *testing.T) {
	oldArt := art(sample{Backend: "clap", Workers: 1, PktsPerSec: 10000})
	newArt := art(sample{Backend: "kitsune", Workers: 1, PktsPerSec: 10000})
	if _, err := gate(oldArt, newArt, "clap", 1, 0.10, 0); err == nil {
		t.Fatal("missing cell accepted")
	}
	if _, err := gate(newArt, oldArt, "clap", 1, 0.10, 0); err == nil {
		t.Fatal("missing baseline cell accepted")
	}
}

// TestReadArtifactRoundTrip reads the committed PR3 snapshot format (no
// batch field) and a PR4-shaped file.
func TestReadArtifactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pr3 := filepath.Join(dir, "old.json")
	if err := os.WriteFile(pr3, []byte(`{
  "pr": 3, "profile": "tiny", "gomaxprocs": 1,
  "results": [{"backend": "clap", "workers": 1, "pkts_per_sec": 11722.6}]
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := readArtifact(pr3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Results[0].Batch != 0 || a.Results[0].PktsPerSec != 11722.6 {
		t.Fatalf("parsed %+v", a.Results[0])
	}
	if _, err := readArtifact(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`{"pr": 4, "results": []}`), 0o644)
	if _, err := readArtifact(empty); err == nil {
		t.Fatal("empty results accepted")
	}
}

func TestRatioGate(t *testing.T) {
	a := art(
		sample{Backend: "clap", Workers: 1, Batch: 1, PktsPerSec: 20000},
		sample{Backend: "clap", Workers: 1, Batch: 24, PktsPerSec: 30000},
		sample{Backend: "cascade", Workers: 1, Batch: 1, PktsPerSec: 180000},
	)
	v, err := ratioGate(a, "cascade", "clap", 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if v.Failures != nil {
		t.Fatalf("ratio gate failed: %v", v.Failures)
	}
	// The denominator is the best clap cell (the batched 30000 sample).
	if v.Ratio != 6 {
		t.Fatalf("ratio %v, want 6 (180000 / best clap 30000)", v.Ratio)
	}

	v, err = ratioGate(a, "cascade", "clap", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Failures) != 1 || !strings.Contains(v.Failures[0], "RATIO FLOOR") {
		t.Fatalf("failures = %v, want one RATIO FLOOR", v.Failures)
	}

	if _, err := ratioGate(a, "cascade", "kitsune", 1, 5); err == nil {
		t.Fatal("missing denominator cell accepted")
	}
	if _, err := ratioGate(a, "nope", "clap", 1, 5); err == nil {
		t.Fatal("missing numerator cell accepted")
	}
}

// TestLockstepRowsStaySeparate pins that rows of the removed
// cross-connection mode, still present in the committed BENCH_pr9.json
// baseline, never leak into the regression gate or the cross-backend
// ratio gate.
func TestLockstepRowsStaySeparate(t *testing.T) {
	oldArt := art(sample{Backend: "clap", Workers: 1, PktsPerSec: 10000})
	newArt := art(
		sample{Backend: "clap", Workers: 1, Batch: 24, PktsPerSec: 12000},
		sample{Backend: "clap", Workers: 1, Batch: 24, Lockstep: 24, PktsPerSec: 50000},
		sample{Backend: "cascade", Workers: 1, Batch: 1, PktsPerSec: 60000},
	)
	v, err := gate(oldArt, newArt, "clap", 1, 0.10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Best != 12000 {
		t.Fatalf("regression gate picked %v, want the lockstep-free 12000 sample", v.Best)
	}
	rv, err := ratioGate(newArt, "cascade", "clap", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Den != 12000 {
		t.Fatalf("ratio gate denominator %v, want the lockstep-free 12000 sample", rv.Den)
	}
}
