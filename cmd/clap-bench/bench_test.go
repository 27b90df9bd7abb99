package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"clap"
	"clap/internal/serve"
)

var manifestPath string // the committed BENCHMARK.json

// TestMain lets the test binary stand in for clap-bench: the harness
// re-executes itself for every timed run, and under go test "itself" is
// this binary. Tests run in a scratch directory, because the harness keeps
// its work files under the current one.
func TestMain(m *testing.M) {
	if os.Getenv("CLAP_BENCH_CHILD") != "" {
		main()
		os.Exit(0)
	}
	abs, err := filepath.Abs(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		panic(err)
	}
	manifestPath = abs
	dir, err := os.MkdirTemp("", "clap-bench-test")
	if err != nil {
		panic(err)
	}
	if err := os.Chdir(dir); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// The committed manifest is what the metric tables render, and stays inside
// the limits its contract sets.
func TestManifest(t *testing.T) {
	want, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := manifest(); !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is not what the tables in metrics.go render; regenerate it with clap-bench -manifest")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters, or more than one line", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: unit %q, bound %v", d.Name, d.Unit, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range perLayer {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	// 4 + 22 runs a workload, each with two set-ups (up to 6 s each when the
	// box is slow), its timed seconds and process start-up, must fit the
	// driver's 3420 s with two builds.
	if runs := 4 + 22*len(workloadDefs); float64(runs)*(runSeconds+17) > 3420-120 {
		t.Errorf("%d runs of %d s do not fit the time cap", runs, runSeconds)
	}
}

func checkLine(t *testing.T, what string, line contractLine, defs []metricDef) {
	t.Helper()
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("%s: correct %v, attempted %d, failed %d", what, line.Correct, line.Attempted, line.Failed)
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", what, len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
			t.Errorf("%s: metric %s = %+v (present %v), want a finite value in %s", what, d.Name, m, ok, d.Unit)
		}
	}
}

// One workload through the contract's command line, timed and traced, at
// smoke size: the last line of standard output carries every metric the
// manifest names, finite and in its unit; the same seed gives the same
// verdicts and another seed other ones.
func TestContractLines(t *testing.T) {
	args := []string{"-smoke", "--workload", "file-cascade", "--seconds", "0.2"}
	info, line, err := contractOutput(append(args, "--seed", "7", "--trace", "0")...)
	if err != nil {
		t.Fatal(err)
	}
	checkLine(t, "timed", line, endToEnd)
	for _, d := range endToEnd {
		if line.Metrics[d.Name].Value <= 0 {
			t.Errorf("%s = %v: end-to-end metrics are never 0", d.Name, line.Metrics[d.Name].Value)
		}
	}
	_, traced, err := contractOutput(append(args, "--seed", "7", "--trace", "1")...)
	if err != nil {
		t.Fatal(err)
	}
	checkLine(t, "traced", traced, perLayer)
	again, _, err := contractOutput(append(args, "--seed", "7", "--trace", "0")...)
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := contractOutput(append(args, "--seed", "8", "--trace", "0")...)
	if err != nil {
		t.Fatal(err)
	}
	if info.Digest == "" || again.Digest != info.Digest || other.Digest == info.Digest {
		t.Errorf("score digests: seed 7 %s and %s, seed 8 %s", info.Digest, again.Digest, other.Digest)
	}
	if _, _, err := contractOutput("-smoke", "--workload", "no-such", "--trace", "0"); err == nil {
		t.Error("an unknown workload must fail")
	}
}

// The whole suite at smoke size — all five workloads, timed and traced: it
// prints every metric by name, every value it writes is finite, and
// -compare accepts the file against itself.
func TestSmokeSuite(t *testing.T) {
	out := filepath.Join(t.TempDir(), "a.json")
	var table bytes.Buffer
	if err := suite(suiteConfig{seed: 3, seconds: 0.2, runs: 1, smoke: true, out: out}, &table); err != nil {
		t.Fatalf("%v\n%s", err, table.String())
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if n := strings.Count(table.String(), "  "+d.Name+" "); n != len(workloadDefs) {
			t.Errorf("%s printed %d times, want once a workload", d.Name, n)
		}
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res suiteResults
	if err := json.Unmarshal(raw, &res); err != nil { // NaN and Inf do not survive JSON
		t.Fatal(err)
	}
	for _, w := range workloadDefs {
		wr := res.Workloads[w.Name]
		if wr == nil || len(wr.EndToEnd) != len(endToEnd) || len(wr.PerLayer) != len(perLayer) || wr.Attempted == 0 || wr.Failed != 0 {
			t.Errorf("%s: %+v", w.Name, wr)
		}
	}
	var cmp bytes.Buffer
	if err := compareFiles([]string{out, out}, &cmp); err != nil || strings.Contains(cmp.String(), "regressed") {
		t.Errorf("a result file against itself: %v\n%s", err, cmp.String())
	}
}

// The seed reaches the traffic generators and nothing else: the same seed
// gives byte-identical captures, another seed other bytes, and the model is
// the same file whatever the seed.
func TestSeedReachesOnlyTheGenerators(t *testing.T) {
	for _, gen := range []func(int, int64) ([]*clap.Connection, truth){mixedCorpus, shortCorpus} {
		pcap := func(seed int64) []byte {
			conns, _ := gen(200, seed)
			raw, err := pcapBytes(conns)
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		if a := pcap(5); !bytes.Equal(a, pcap(5)) || bytes.Equal(a, pcap(6)) {
			t.Error("a capture must depend on the seed and on nothing else")
		}
	}
	var models [2][]byte
	for i := range models {
		dir := t.TempDir()
		if err := buildInputs(dir, "file-cascade", smokeSizes, int64(10+i)); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, modelFile))
		if err != nil {
			t.Fatal(err)
		}
		models[i] = raw
	}
	if !bytes.Equal(models[0], models[1]) {
		t.Error("the model changed with the seed")
	}
}

func TestMixedCorpus(t *testing.T) {
	conns, tr := mixedCorpus(1000, 1)
	if want := len(conns) / attackShare; len(tr.AttackKeys) < want*9/10 {
		t.Errorf("%d of %d connections carry an attack", len(tr.AttackKeys), want)
	}
	names := map[string]bool{}
	for _, c := range conns {
		if c.AttackName != "" {
			names[c.AttackName] = true
		}
		if !decodable(c) {
			t.Fatalf("connection %s does not survive a pcap", c.Key)
		}
	}
	if len(names) < 60 {
		t.Errorf("only %d strategies in rotation", len(names))
	}
}

// An open loop times every verdict from when its connection was due. A
// stalled consumer therefore shows in the latencies of everything it held
// up, not just of what was in its hands; and once the stall reaches the
// generator through backpressure, the generator reports itself late and
// the run as invalid instead of quietly offering less.
func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	m, err := trainModels(smokeSizes, false)
	if err != nil {
		t.Fatal(err)
	}
	conns, _ := mixedCorpus(200, 4)
	const rate, stall = 1500, 400 * time.Millisecond
	g := newLoadGen(conns, rate, 0.6/0.6) // an open loop of 0.6 s, 900 connections
	seen := 0
	cfg := serve.Config{Backend: m.cl, CalibrationSnapshot: m.clCal, OnResult: func(r clap.Result) {
		if g.cur.due != nil && seen%900 == 100 { // once in every open-loop attempt
			time.Sleep(stall)
		}
		seen++
		g.onResult(r)
	}}
	if err := serveUntilDone(cfg, g, g.done, nil); err != nil {
		t.Fatal(err)
	}
	res := g.result()
	if res.Failed != 0 || res.Fed == 0 {
		t.Errorf("fed %d packets, %d failed", res.Fed, res.Failed)
	}
	// 400 ms at 1500/s is 600 connections against a queue of 256.
	if res.LateMsP99 <= lateLimitMs || res.OpenAttempts != openAttempts {
		t.Errorf("generator lateness p99 %.1f ms after %d attempts: the stall never reached it", res.LateMsP99, res.OpenAttempts)
	}
	if res.VerdictP95MsAll < float64(stall.Milliseconds())/2 {
		t.Errorf("p95 over the whole phase is %.1f ms with a %v stall in it: latency is not counted from the due time", res.VerdictP95MsAll, stall)
	}
	if res.Invalid == "" {
		t.Error("a late generator must invalidate the run")
	}
}

func TestWindowQuantiles(t *testing.T) {
	p := newPhase(0, true)
	p.start = time.Unix(0, 0)
	for i := 0; i < 400; i++ { // four half-second windows, the second and fourth disturbed
		at := p.start.Add(time.Duration(i) * 5 * time.Millisecond)
		lat := 1.0
		if w := i / 100; w == 1 || w == 3 {
			lat = 50
		}
		p.at, p.latMs = append(p.at, at), append(p.latMs, lat)
	}
	p.at, p.latMs = append(p.at, p.start.Add(3*time.Second)), append(p.latMs, 50) // the drain's tail
	got := p.windowQuantiles(2*time.Second, 0.95)
	if want := []float64{1, 50, 1, 50}; len(got) != 4 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
		t.Errorf("window p95 = %v, want %v", got, want)
	}
	if fastCost(got) != 1 {
		t.Errorf("the undisturbed windows must speak: %v", fastCost(got))
	}
}

// quartiles must be the ones the benchmark's driver computes.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %v, %v", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	side := func(rate, p95 []float64) string {
		res := suiteResults{Workloads: map[string]*workloadResults{"file-clap": {
			EndToEnd: map[string][]float64{"pkts_per_s": rate, "verdict_p95_ms": p95}, Attempted: 10,
		}}}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{100, 101, 99, 100, 100}
	a := side(steady, steady)
	var out bytes.Buffer
	err := compareFiles([]string{a, side([]float64{60, 61, 59, 60, 60}, []float64{100, 300, 20, 100, 100})}, &out)
	if err == nil {
		t.Error("a 40 % throughput loss must fail the comparison")
	}
	for _, want := range []string{"pkts_per_s", "regressed", "unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := compareFiles([]string{a, side([]float64{104, 105, 103, 104, 104}, steady)}, &out); err != nil || strings.Contains(out.String(), "regressed") {
		t.Errorf("an improvement within the spread: %v\n%s", err, out.String())
	}
	if err := compareFiles([]string{a}, &out); err == nil {
		t.Error("one file is not a comparison")
	}
}

func TestPromParsing(t *testing.T) {
	text := strings.Join([]string{
		`clap_serve_queue_depth 17`,
		`clap_serve_source_dropped_total{source="a"} 2`,
		`clap_serve_source_dropped_total{source="b"} 3`,
		`h_bucket{stage="queue",le="0.001"} 10`,
		`h_bucket{stage="queue",le="0.0025"} 30`,
		`h_bucket{stage="queue",le="+Inf"} 40`,
	}, "\n")
	if v, ok := promValue(text, "clap_serve_queue_depth"); !ok || v != 17 {
		t.Errorf("gauge = %v, %v", v, ok)
	}
	if v := promSum(text, "clap_serve_source_dropped_total"); v != 5 {
		t.Errorf("sum = %v", v)
	}
	// The 20th of 40 samples lies halfway through the second bucket.
	if got, want := promP50ms(text, "h", `stage="queue",`), 1.75; math.Abs(got-want) > 1e-9 {
		t.Errorf("p50 = %v ms, want %v", got, want)
	}
	if got := promP50ms(text, "h", `stage="none",`); got != 0 {
		t.Errorf("p50 of a missing series = %v", got)
	}
}
