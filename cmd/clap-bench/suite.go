package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

type suiteConfig struct {
	seed      int64
	seconds   float64
	runs      int
	smoke     bool
	traceOnly bool
	out       string
}

// suiteResults is the -out file: every value of every run.
type suiteResults struct {
	Env       envInfo                     `json:"env"`
	Seed      int64                       `json:"seed"`
	Seconds   float64                     `json:"seconds"`
	Smoke     bool                        `json:"smoke,omitempty"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

type workloadResults struct {
	EndToEnd  map[string][]float64 `json:"end_to_end"` // one value per run
	PerLayer  map[string]float64   `json:"per_layer,omitempty"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	AUC       []float64            `json:"auc,omitempty"`
	Digests   []string             `json:"score_digests,omitempty"`
	Passes    []int                `json:"passes,omitempty"`
	LateMsMax []float64            `json:"late_ms_max,omitempty"`
}

// contractOutput runs one contract run of this binary and parses what it
// printed: the optional info line and the final result line.
func contractOutput(args ...string) (*runResult, contractLine, error) {
	var line contractLine
	stdout, err := selfOutput(args...)
	if err != nil {
		return nil, line, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, line, fmt.Errorf("%s printed no result: %w", strings.Join(args, " "), err)
	}
	var info infoLine
	if len(lines) > 1 {
		if err := json.Unmarshal(lines[len(lines)-2], &info); err != nil {
			return nil, line, err
		}
	}
	return info.Info, line, nil
}

// suite runs every workload cfg.runs times, each in its own process tree,
// then the traced run of every workload; prints every metric by name with
// its unit, median, quartiles and sample count; and fails on a failed
// output check, on any failed packet, and on score digests that differ
// between repeats of a workload whose verdicts are repeatable.
func suite(cfg suiteConfig, out io.Writer) error {
	res := &suiteResults{Env: environment(), Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke, Workloads: map[string]*workloadResults{}}
	var failures []string
	for _, w := range workloadDefs {
		wr := &workloadResults{EndToEnd: map[string][]float64{}}
		res.Workloads[w.Name] = wr
		common := []string{"--workload", w.Name, "--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.seconds)}
		if cfg.smoke {
			common = append(common, "-smoke")
		}
		for i := 0; i < cfg.runs && !cfg.traceOnly; i++ {
			info, line, err := contractOutput(append(common, "--trace", "0")...)
			if err != nil {
				return err
			}
			for name, m := range line.Metrics {
				wr.EndToEnd[name] = append(wr.EndToEnd[name], m.Value)
			}
			wr.Attempted += line.Attempted
			wr.Failed += line.Failed
			if !line.Correct {
				failures = append(failures, fmt.Sprintf("%s run %d: output check failed", w.Name, i))
			}
			if info != nil {
				wr.AUC = append(wr.AUC, info.AUC)
				wr.Digests = append(wr.Digests, info.Digest)
				wr.Passes = append(wr.Passes, info.Passes)
				wr.LateMsMax = append(wr.LateMsMax, info.LateMsMax)
			}
		}
		if wr.Failed > 0 {
			failures = append(failures, fmt.Sprintf("%s: %d of %d packets reached no finite-score verdict", w.Name, wr.Failed, wr.Attempted))
		}
		// live-short's verdicts depend on which flows an idle flush cuts.
		for _, d := range wr.Digests {
			if w.Name != "live-short" && d != wr.Digests[0] {
				failures = append(failures, fmt.Sprintf("%s: score digest %s differs from the first run's %s", w.Name, d, wr.Digests[0]))
				break
			}
		}
		_, line, err := contractOutput(append(common, "--trace", "1")...)
		if err != nil {
			return err
		}
		wr.PerLayer = map[string]float64{}
		for name, m := range line.Metrics {
			wr.PerLayer[name] = m.Value
		}
		if !line.Correct {
			failures = append(failures, fmt.Sprintf("%s traced run: output check failed", w.Name))
		}
	}
	printSuite(out, res)
	if cfg.out != "" {
		raw, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d checks failed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method), so a
// spread computed here is the spread the benchmark's driver computes.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(n-1, j))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(m)
}

func printSuite(out io.Writer, res *suiteResults) {
	e := res.Env
	fmt.Fprintf(out, "clap-bench: %s, nproc %d, GOMAXPROCS %d, %s %s; seed %d, %g s per run\n",
		e.CPU, e.NumCPU, e.GOMAXPROCS, e.Go, e.OS, res.Seed, res.Seconds)
	for _, w := range workloadDefs {
		wr := res.Workloads[w.Name]
		if wr == nil {
			continue
		}
		fmt.Fprintf(out, "\n%s — %d packets attempted, %d failed", w.Name, wr.Attempted, wr.Failed)
		if len(wr.AUC) > 0 && wr.AUC[0] > 0 {
			fmt.Fprintf(out, ", auc %.4f", wr.AUC[0])
		}
		if len(wr.Digests) > 0 {
			fmt.Fprintf(out, ", score digest %s", wr.Digests[0])
		}
		fmt.Fprintln(out)
		if len(wr.EndToEnd) > 0 {
			fmt.Fprintf(out, "  %-34s %-8s %14s %14s %14s %8s %3s\n", "end to end", "unit", "median", "q1", "q3", "spread", "n")
		}
		for _, d := range endToEnd {
			vals := wr.EndToEnd[d.Name]
			if len(vals) == 0 {
				continue
			}
			q1, q3 := quartiles(vals)
			fmt.Fprintf(out, "  %-34s %-8s %14.4f %14.4f %14.4f %7.1f%% %3d\n", d.Name, d.Unit, median(vals), q1, q3, 100*spread(vals), len(vals))
		}
		if len(wr.PerLayer) > 0 {
			fmt.Fprintf(out, "  %-34s %-8s %14s\n", "per layer (traced run)", "unit", "value")
		}
		for _, d := range perLayer {
			if v, ok := wr.PerLayer[d.Name]; ok {
				fmt.Fprintf(out, "  %-34s %-8s %14.4f\n", d.Name, d.Unit, v)
			}
		}
	}
}

// compareFiles prints, for every workload and end-to-end metric of two
// -out files, both medians and quartiles, the relative change of the median
// in the metric's worse direction, and a verdict against the metric's own
// bound: regressed beyond it, unresolved when either side's spread is wider
// than the bound, ok otherwise. It fails when anything regressed.
func compareFiles(paths []string, out io.Writer) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare needs two result files, got %d", len(paths))
	}
	var sides [2]suiteResults
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &sides[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	fmt.Fprintf(out, "%-16s %-20s %12s %22s %12s %22s %8s %6s  %s\n", "workload", "metric", "median a", "[q1, q3]", "median b", "[q1, q3]", "worse", "bound", "verdict")
	regressed := 0
	for _, w := range workloadDefs {
		a, b := sides[0].Workloads[w.Name], sides[1].Workloads[w.Name]
		if a == nil || b == nil {
			continue
		}
		for _, d := range endToEnd {
			va, vb := a.EndToEnd[d.Name], b.EndToEnd[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / math.Abs(ma)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "regressed"
				regressed++
			case spread(va) > d.Bound || spread(vb) > d.Bound:
				verdict = "unresolved"
			}
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			fmt.Fprintf(out, "%-16s %-20s %12.4f %22s %12.4f %22s %+7.1f%% %5.0f%%  %s\n", w.Name, d.Name,
				ma, fmt.Sprintf("[%.4g, %.4g]", a1, a3), mb, fmt.Sprintf("[%.4g, %.4g]", b1, b3), 100*worse, 100*d.Bound, verdict)
		}
		if a.Failed != 0 || b.Failed != 0 {
			fmt.Fprintf(out, "%-16s failed packets: a %d of %d, b %d of %d\n", w.Name, a.Failed, a.Attempted, b.Failed, b.Attempted)
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}
