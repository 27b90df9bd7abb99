// Command bench-gate is the benchmark regression gate: it compares a
// fresh BenchmarkBackendThroughput artifact (BENCH_pr9.json) against a
// committed baseline snapshot and fails — exit
// status 1 — when the watched backend's serial throughput regresses by
// more than the allowed fraction. CI runs it after the bench smoke so a
// PR that slows the hot path down fails loudly instead of silently
// bending the BENCH trajectory.
//
// The new artifact may carry several batch variants per backend/workers
// cell; the gate takes the best of them (the deployed default is the
// batched path) and also reports the speedup over the baseline.
//
// -ratio additionally asserts a cross-backend throughput ratio within
// the fresh artifact — the cascade's contract is that its serial
// benign-heavy throughput stays at least 5x pure clap's. It compares
// samples from the same run on the same machine, so runner hardware
// variance cancels.
//
// Usage:
//
//	bench-gate -old BENCH_pr4.json -new BENCH_pr9.json
//	bench-gate -old BENCH_pr4.json -new BENCH_pr9.json -max-regress 0.10 -min-speedup 2
//	bench-gate -new BENCH_pr9.json -ratio cascade/clap -min-ratio 5
package main

import (
	"flag"
	"log"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench-gate: ")
	var (
		oldPath    = flag.String("old", "", "baseline bench artifact (committed snapshot)")
		newPath    = flag.String("new", "", "fresh bench artifact to gate")
		backendTag = flag.String("backend", "clap", "backend whose throughput is gated")
		workers    = flag.Int("workers", 1, "worker count of the gated cell (1: serial)")
		maxRegress = flag.Float64("max-regress", 0.10, "fail if best new pkts/s falls below (1-max-regress) x baseline")
		minSpeedup = flag.Float64("min-speedup", 0, "additionally fail below this new/old speedup (0: no floor)")
		ratioSpec  = flag.String("ratio", "", "cross-backend ratio to check within -new, as num/den (e.g. cascade/clap)")
		minRatio   = flag.Float64("min-ratio", 0, "fail when the -ratio pair's throughput ratio is below this floor (0: no floor)")
	)
	flag.Parse()
	if *newPath == "" {
		log.Fatal("need -new")
	}
	if *oldPath == "" && *ratioSpec == "" {
		log.Fatal("need -old (or -ratio for a ratio-only check)")
	}

	newArt, err := readArtifact(*newPath)
	if err != nil {
		log.Fatal(err)
	}
	failed := false
	if *oldPath != "" {
		oldArt, err := readArtifact(*oldPath)
		if err != nil {
			log.Fatal(err)
		}
		verdict, err := gate(oldArt, newArt, *backendTag, *workers, *maxRegress, *minSpeedup)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("%s workers=%d: baseline %.0f pkts/s (pr %d), best new %.0f pkts/s (batch=%d, pr %d): %.2fx",
			*backendTag, *workers, verdict.Baseline, oldArt.PR, verdict.Best, verdict.BestBatch, newArt.PR, verdict.Speedup)
		for _, f := range verdict.Failures {
			log.Print(f)
		}
		failed = failed || verdict.Failures != nil
	}
	if *ratioSpec != "" {
		num, den, ok := strings.Cut(*ratioSpec, "/")
		if !ok || num == "" || den == "" {
			log.Fatalf("-ratio %q: want num/den (e.g. cascade/clap)", *ratioSpec)
		}
		rv, err := ratioGate(newArt, num, den, *workers, *minRatio)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("%s/%s workers=%d: %.0f vs %.0f pkts/s: %.2fx (floor %.2fx)",
			num, den, *workers, rv.Num, rv.Den, rv.Ratio, *minRatio)
		for _, f := range rv.Failures {
			log.Print(f)
		}
		failed = failed || rv.Failures != nil
	}
	if failed {
		log.Fatal("benchmark gate FAILED")
	}
	log.Print("benchmark gate passed")
}
