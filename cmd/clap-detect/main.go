// Command clap-detect scores a (suspicious) pcap capture with a persisted
// detection model — CLAP, Baseline #1 or a cascade of them; the tagged
// model header selects the backend automatically. Per-connection
// adversarial scores, verdicts against a threshold, and Top-N localization
// of the most suspicious packets cover the online-detector and forensic
// deployment modes of §3.2. Assembly and scoring run through the
// backend-agnostic pipeline over the parallel engine; scores are
// bit-identical at any worker count.
//
// Usage:
//
//	clap-detect -in suspect.pcap -model clap.model -threshold 0.08 -top 5
//	clap-detect -in suspect.pcap -model clap.model -calibrate benign.pcap -fpr 0.01
//	clap-detect -in suspect.pcap -model b1.model -workers 8 -all
//	clap-detect -in suspect.pcap -model clap.model -json | jq .score
package main

import (
	"flag"
	"log"
	"os"

	"clap"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("clap-detect: ")
	var (
		in          = flag.String("in", "", "suspect pcap to score")
		model       = flag.String("model", "clap.model", "trained model path")
		threshold   = flag.Float64("threshold", 0, "adversarial-score threshold (0: report scores only; not with -calibrate)")
		calibrate   = flag.String("calibrate", "", "benign pcap to derive a threshold from")
		fpr         = flag.Float64("fpr", 0.01, "target false-positive rate for -calibrate")
		top         = flag.Int("top", 5, "Top-N windows to localize per flagged connection")
		all         = flag.Bool("all", false, "print every connection, not only flagged ones")
		jsonOut     = flag.Bool("json", false, "emit JSON lines instead of the text report")
		workers     = flag.Int("workers", 0, "scoring workers (0: all cores)")
		escalateFPR = flag.Float64("escalate-fpr", 0,
			"cascade models: override the persisted escalate-FPR (needs -calibrate)")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *in == "" {
		log.Fatal("need -in")
	}
	if *workers < 0 {
		log.Fatalf("-workers %d: must be >= 0", *workers)
	}
	if set["fpr"] && *calibrate == "" {
		log.Fatalf("-fpr %v: the target of -calibrate, which is not set", *fpr)
	}
	if set["threshold"] && *calibrate != "" {
		log.Fatalf("-threshold %v: -calibrate sets the threshold; give one of the two", *threshold)
	}

	b, err := clap.LoadBackendFile(*model)
	if err != nil {
		log.Fatalf("loading model: %v", err)
	}
	if set["escalate-fpr"] {
		cb, ok := b.(*clap.CascadeBackend)
		if !ok {
			log.Fatalf("-escalate-fpr applies to cascade models; %s is %q", *model, b.Tag())
		}
		if err := cb.SetEscalateFPR(*escalateFPR); err != nil {
			log.Fatal(err)
		}
		// The target moves the escalation threshold only when -calibrate
		// recalibrates it; without it no verdict would change.
		if *calibrate == "" {
			log.Fatalf("-escalate-fpr %v: takes effect at -calibrate, which is not set", *escalateFPR)
		}
	}
	log.Printf("loaded %s", b.Describe())

	// The threshold lives in the pipeline's (model, threshold) pair:
	// -threshold installs it at construction, -calibrate after scoring the
	// benign capture, as clap-serve installs its tenants' thresholds.
	hot, err := clap.NewHotBackend(b)
	if err != nil {
		log.Fatal(err)
	}
	opts := []clap.PipelineOption{clap.WithBackend(hot), clap.WithTopN(*top)}
	if *workers > 0 {
		opts = append(opts, clap.WithWorkers(*workers))
	}
	if *calibrate == "" {
		opts = append(opts, clap.WithThreshold(*threshold))
	}
	p, err := clap.NewPipeline(opts...)
	if err != nil {
		log.Fatal(err)
	}
	var cal *clap.Calibration
	if *calibrate != "" {
		if cal, err = p.Calibrate(*fpr, clap.PCAPFile(*calibrate)); err != nil {
			log.Fatal(err)
		}
		if err := hot.SetThreshold(cal.Threshold); err != nil {
			log.Fatal(err)
		}
	}

	var sink clap.Sink = clap.NewTextReport(os.Stdout, *all)
	if *jsonOut {
		sink = clap.NewJSONLines(os.Stdout)
	}
	sum, err := p.Run(clap.PCAPFile(*in), sink)
	if err != nil {
		log.Fatal(err)
	}
	if cal != nil {
		log.Printf("calibrated threshold %.6f at FPR <= %.3f over %d benign connections (%d records skipped)",
			cal.Threshold, cal.FPR, cal.Conns, cal.Skipped)
	}
	// Surface undecodable records: a silently truncated capture would
	// otherwise look like a clean, smaller one.
	log.Printf("scored %d connections (%d records skipped)", len(sum.Results), sum.Skipped)
}
