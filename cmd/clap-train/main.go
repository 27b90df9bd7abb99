// Command clap-train trains a detection backend from a benign pcap capture
// and persists it (with the tagged backend header) to disk. Any registered
// backend works: CLAP, the context-agnostic Baseline #1, or a cascade of
// the two.
//
// Usage:
//
//	clap-train -in benign.pcap -model clap.model -rnn-epochs 14 -ae-epochs 30
//	clap-train -in benign.pcap -model b1.model -backend baseline1
//	clap-train -in benign.pcap -model tier.model \
//	        -backend cascade:baseline1+clap -escalate-fpr 0.05
package main

import (
	"flag"
	"fmt"
	"log"

	"clap"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("clap-train: ")
	var (
		in         = flag.String("in", "", "benign training pcap")
		model      = flag.String("model", "clap.model", "output model path")
		backendTag = flag.String("backend", clap.BackendCLAP,
			fmt.Sprintf("detection backend to train %v, or cascade:stage1+stage2", clap.BackendTags()))
		seed        = flag.Int64("seed", 1, "training seed")
		rnnEpochs   = flag.Int("rnn-epochs", 14, "RNN training epochs (clap/baseline1)")
		aeEpochs    = flag.Int("ae-epochs", 30, "autoencoder training epochs (clap/baseline1)")
		escalateFPR = flag.Float64("escalate-fpr", 0.05,
			"cascade backends: target fraction of benign traffic escalated to the expensive stage")
		quiet = flag.Bool("quiet", false, "suppress progress output")
	)
	flag.Parse()
	if *in == "" {
		log.Fatal("need -in (generate one with trafficgen)")
	}
	if *rnnEpochs < 1 || *aeEpochs < 1 {
		log.Fatalf("-rnn-epochs %d, -ae-epochs %d: each must be >= 1", *rnnEpochs, *aeEpochs)
	}
	tag := *backendTag
	b, err := clap.NewBackendSpec(tag)
	if err != nil {
		log.Fatal(err)
	}
	// Refused before any input is read: only a cascade has an escalation
	// budget, so the flag would otherwise be dropped from the saved model.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if _, ok := b.(*clap.CascadeBackend); set["escalate-fpr"] && !ok {
		log.Fatalf("-escalate-fpr applies to cascade models; -backend %s is not one", tag)
	}
	// Apply the training knobs to every CLAP-family model in the backend —
	// both stages of a cascade included.
	var configure func(clap.Backend)
	configure = func(b clap.Backend) {
		switch bk := b.(type) {
		case *clap.CLAPBackend:
			bk.Cfg.Seed = *seed
			bk.Cfg.RNNEpochs = *rnnEpochs
			bk.Cfg.AEEpochs = *aeEpochs
		case *clap.CascadeBackend:
			if err := bk.SetEscalateFPR(*escalateFPR); err != nil {
				log.Fatal(err)
			}
			s1, s2 := bk.Stages()
			configure(s1)
			configure(s2)
		}
	}
	configure(b)

	eng := clap.NewEngine(0)
	conns, skipped, err := clap.PCAPFile(*in).Connections(eng)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("read %d connections (%d records skipped)", len(conns), skipped)

	logf := func(format string, args ...any) { log.Printf(format, args...) }
	if *quiet {
		logf = func(string, ...any) {}
	}
	if err := b.Train(conns, logf); err != nil {
		log.Fatalf("training %s: %v", tag, err)
	}
	if err := clap.SaveBackendFile(*model, b); err != nil {
		log.Fatalf("saving model: %v", err)
	}
	fmt.Printf("trained %s\nsaved to %s\n", b.Describe(), *model)
}
