// Command clap-bench is the repository's benchmark: five workloads in the
// shapes the detector is deployed in (clap-detect on a file, clap-serve
// under an arrival schedule, clap-serve -stdin on live short flows), timed
// end to end with tracing off, plus a separate traced run that replays a
// corpus one pipeline stage at a time and times every layer from outside
// through its exported functions. README.md defines every metric.
//
//	go run ./cmd/clap-bench                          # every workload, N runs each, then the traced runs
//	go run ./cmd/clap-bench -smoke                   # the same at ~1 % size, seconds not minutes
//	go run ./cmd/clap-bench -out a.json ; ... -out b.json
//	go run ./cmd/clap-bench -compare a.json b.json   # medians, quartiles, delta against each bound
//	go run ./cmd/clap-bench --workload file-clap --seed 3 --seconds 10 --trace 0   # one run, BENCHMARK.json's contract
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print one result line (BENCHMARK.json's contract); empty runs the whole suite")
		seed     = flag.Int64("seed", 1, "workload seed: it reaches only the traffic generators")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "1: the traced, stage-at-a-time run (per-layer metrics) instead of the timed one")
		runs     = flag.Int("runs", 5, "suite: timed runs per workload")
		out      = flag.String("out", "", "suite: also write every value to this JSON file, for -compare")
		smoke    = flag.Bool("smoke", false, "about 1 % input sizes, one run, one-second phases: exercises the harness, measures nothing")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments")
		mani     = flag.Bool("manifest", false, "print BENCHMARK.json")
		runOneIn = flag.String("run-one", "", "internal: the child process of a timed run, over the inputs in this directory")
	)
	flag.Parse()
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
		setFlags := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
		if !setFlags["seconds"] {
			*seconds = 1
		}
		if !setFlags["runs"] {
			*runs = 1
		}
	}
	var err error
	switch {
	case *mani:
		_, err = os.Stdout.Write(manifest())
	case *compare:
		err = compareFiles(flag.Args(), os.Stdout)
	case *runOneIn != "":
		err = runOne(*runOneIn, *workload, *seconds, os.Stdout)
	case *workload != "":
		err = contractRun(*workload, *seed, *seconds, *trace == 1, sz, os.Stdout)
	default:
		err = suite(suiteConfig{seed: *seed, seconds: *seconds, runs: *runs, smoke: *smoke, traceOnly: *trace == 1, out: *out}, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "clap-bench:", err)
		os.Exit(1)
	}
}

// errInvalidRun marks a run whose numbers must not be reported.
var errInvalidRun = errors.New("invalid run")

// contractLine is the last line of a contract run's standard output.
type contractLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// infoLine precedes it with what the fixed shape has no place for.
type infoLine struct {
	Info *runResult `json:"info"`
}

func knownWorkload(name string) bool {
	for _, w := range workloadDefs {
		if w.Name == name {
			return true
		}
	}
	return false
}

// workDir makes this process's scratch directory inside the current
// directory: the benchmark reads and writes nowhere else.
func workDir() (string, error) {
	dir := filepath.Join(".bench_build", "clap-bench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// contractRun is one run of one workload: set-up (several times, reporting
// the undisturbed one like every other time), then either the timed run in
// a fresh child process, so peak RSS and GC state are the run's own, or the
// traced run in-process.
func contractRun(workload string, seed int64, seconds float64, traced bool, sz sizes, out io.Writer) error {
	if !knownWorkload(workload) {
		return fmt.Errorf("unknown workload %q", workload)
	}
	dir, err := workDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	line := contractLine{Correct: true, Metrics: map[string]measured{}}
	if traced {
		vals, attempted, problems, err := traceRun(workload, sz, seed)
		if err != nil {
			return err
		}
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "clap-bench: check failed:", p)
		}
		line.Correct, line.Attempted = len(problems) == 0, attempted
		for _, d := range perLayer {
			v, ok := vals[d.Name]
			if !ok {
				return fmt.Errorf("traced run produced no %s", d.Name)
			}
			line.Metrics[d.Name] = measured{v, d.Unit}
		}
		return json.NewEncoder(out).Encode(line)
	}

	var setups []float64
	for i := 0; i < sz.setupReps; i++ {
		t0 := time.Now()
		if err := buildInputs(dir, workload, sz, seed); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res, err := spawnTimed(dir, workload, seconds)
	if err != nil {
		return err
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "clap-bench: check failed:", p)
	}
	if res.Invalid != "" {
		return fmt.Errorf("%w: %s", errInvalidRun, res.Invalid)
	}
	line.Correct = len(res.Problems) == 0
	line.Attempted, line.Failed = res.Fed, res.Failed
	vals := map[string]float64{
		"setup_s":             fastCost(setups) + res.LoadS,
		"pkts_per_s":          res.PktsPerS,
		"cpu_us_per_pkt":      res.CPUUsPerPkt,
		"alloc_bytes_per_pkt": res.AllocBytesPerPkt,
		"allocs_per_pkt":      res.AllocsPerPkt,
		"peak_rss_mb":         res.PeakRSSMB,
		"verdict_p50_ms":      res.VerdictP50Ms,
		"verdict_p95_ms":      res.VerdictP95Ms,
	}
	for _, d := range endToEnd {
		line.Metrics[d.Name] = measured{vals[d.Name], d.Unit}
	}
	if err := json.NewEncoder(out).Encode(infoLine{res}); err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(line)
}

// selfOutput re-executes this binary, waits for it and returns what it
// printed. Under go test the binary is the test binary, whose TestMain hands
// control to main when it sees the variable.
func selfOutput(args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "CLAP_BENCH_CHILD=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("clap-bench %s: %w", strings.Join(args, " "), err)
	}
	return out, nil
}

// spawnTimed runs the timed part in a child process.
func spawnTimed(dir, workload string, seconds float64) (*runResult, error) {
	out, err := selfOutput("-run-one", dir, "-workload", workload, "-seconds", fmt.Sprint(seconds))
	if err != nil {
		return nil, err
	}
	res := &runResult{}
	if err := json.Unmarshal(out, res); err != nil {
		return nil, fmt.Errorf("timed run of %s printed no result: %w", workload, err)
	}
	return res, nil
}

// envInfo is where a set of numbers was measured.
type envInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

func environment() envInfo {
	e := envInfo{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(l, "model name"); ok {
				e.CPU = strings.TrimSpace(strings.TrimLeft(name, " \t:"))
				break
			}
		}
	}
	return e
}
