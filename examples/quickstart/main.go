// Quickstart: train a detection backend on benign traffic, inject one
// evasion attack, and detect it through the backend-agnostic Pipeline —
// the README's 60-second tour of the public API. Swap the backend tag for
// "baseline1" and the rest of the program is unchanged.
package main

import (
	"fmt"
	"log"
	"os"

	"clap"
)

func main() {
	log.SetFlags(0)

	// 1. Pick a backend from the registry and train it on benign traffic
	// only (the stand-in for a MAWI capture).
	bk, err := clap.NewBackend(clap.BackendCLAP)
	if err != nil {
		log.Fatal(err)
	}
	if cb, ok := bk.(*clap.CLAPBackend); ok {
		cb.Cfg.RNNEpochs, cb.Cfg.AEEpochs, cb.Cfg.AERestarts = 8, 35, 2
	}
	fmt.Println("training CLAP (unsupervised, benign traffic only)...")
	train := clap.GenerateBenign(200, 1)
	if err := bk.Train(train, func(string, ...any) {}); err != nil {
		log.Fatal(err)
	}

	// 2. Build the deployment pipeline: calibrate the operating point at
	// 5% FPR on held-out benign traffic, localize the top 3 windows.
	pipe, err := clap.NewPipeline(
		clap.WithBackend(bk),
		clap.WithThresholdFPR(0.05, clap.TrafficGen(80, 5)),
		clap.WithTopN(3),
	)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Fresh traffic with the paper's motivating example injected into
	// half the connections, scored end to end. The alert-log sink prints
	// each detection as it is emitted.
	suspect := clap.AttackCorpus(
		clap.TrafficGen(60, 42),
		"GFW: Injected RST Bad TCP-Checksum/MD5-Option",
		0.5, 7,
	)
	sum, err := pipe.Run(suspect, clap.NewAlertLog(os.Stdout))
	if err != nil {
		log.Fatal(err)
	}

	// 4. The summary holds every verdict for programmatic use.
	fmt.Printf("\nthreshold at 5%% FPR: %.5f\n", sum.Threshold)
	attacked, caught, falseAlarms := 0, 0, 0
	for _, r := range sum.Results {
		switch {
		case r.Conn.AttackName != "":
			attacked++
			if r.Flagged {
				caught++
			}
		case r.Flagged:
			falseAlarms++
		}
	}
	fmt.Printf("detected %d/%d injected attacks (%d false alarms over %d benign flows)\n",
		caught, attacked, falseAlarms, len(sum.Results)-attacked)
}
