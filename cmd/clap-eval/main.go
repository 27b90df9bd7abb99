// Command clap-eval reproduces the paper's full evaluation in one shot:
// dataset generation, training of CLAP and both baselines, detection and
// localization over all 73 evasion strategies, and every table and figure
// of §4 rendered to stdout (or a file).
//
// Usage:
//
//	clap-eval -profile fast
//	clap-eval -profile full -out report.txt
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"clap/internal/eval"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("clap-eval: ")
	var (
		profile = flag.String("profile", "fast", "evaluation scale: tiny, fast or full")
		out     = flag.String("out", "", "write the report to a file instead of stdout")
		seed    = flag.Int64("seed", 1, "experiment seed")
		quiet   = flag.Bool("quiet", false, "suppress training progress")
		workers = flag.Int("workers", 0, "scoring workers (0: all cores); scores are identical at any count")
	)
	flag.Parse()
	if *workers < 0 {
		log.Fatalf("-workers %d: must be >= 0", *workers)
	}
	switch p := eval.Profile(*profile); p {
	case eval.ProfileTiny, eval.ProfileFast, eval.ProfileFull:
	default:
		log.Fatalf("-profile %q: want tiny, fast or full", p)
	}

	opts := eval.OptionsFor(eval.Profile(*profile))
	opts.Seed = *seed
	opts.Workers = *workers

	logf := func(format string, args ...any) { log.Printf(format, args...) }
	if *quiet {
		logf = nil
	}
	suite, err := eval.BuildSuite(opts, logf)
	if err != nil {
		log.Fatal(err)
	}
	// The suite trains every backend registered for the comparison; report
	// times generically so a fourth backend shows up without CLI changes.
	for _, tag := range suite.Tags() {
		log.Printf("training %s took %v", tag, suite.TrainTime[tag])
	}

	results := suite.EvaluateAll()
	report := eval.FullReport(suite, results)

	if *out == "" {
		fmt.Print(report)
		return
	}
	if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("report written to %s\n", *out)
}
