package clap_test

// End-to-end integration tests of the command-line tools: build each
// binary, then drive the full pcap workflow the README documents —
// generate benign traffic, inject an attack, train a detector, detect and
// localize. Run with -short to skip.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// buildTools compiles the six commands the tests drive once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "clap-tools-*")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"trafficgen", "attack-inject", "clap-train", "clap-detect", "clap-eval", "clap-serve"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, tool), "./cmd/"+tool)
			out, err := cmd.CombinedOutput()
			if err != nil {
				buildErr = err
				buildDir = string(out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v: %s", buildErr, buildDir)
	}
	return buildDir
}

func run(t *testing.T, dir string, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

// runFails runs a tool that must refuse its arguments: it exits non-zero
// and its output names want.
func runFails(t *testing.T, dir, want, name string, args ...string) {
	t.Helper()
	out, err := exec.Command(filepath.Join(dir, name), args...).CombinedOutput()
	if err == nil || !strings.Contains(string(out), want) {
		t.Fatalf("%s %v: err %v, want a failure naming %q:\n%s", name, args, err, want, out)
	}
}

func TestCommandWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	tools := buildTools(t)
	work := t.TempDir()
	benign := filepath.Join(work, "benign.pcap")
	adv := filepath.Join(work, "adv.pcap")
	truth := filepath.Join(work, "truth.txt")
	model := filepath.Join(work, "clap.model")

	// 1. Generate benign traffic.
	out := run(t, tools, "trafficgen", "-out", benign, "-connections", "120", "-seed", "3")
	if !strings.Contains(out, "120 connections") {
		t.Fatalf("trafficgen output unexpected: %s", out)
	}
	if st, err := os.Stat(benign); err != nil || st.Size() < 1000 {
		t.Fatalf("benign pcap missing or too small: %v", err)
	}

	// 2. Inject an attack into a fraction of a second capture.
	run(t, tools, "trafficgen", "-out", filepath.Join(work, "test.pcap"), "-connections", "40", "-seed", "77")
	out = run(t, tools, "attack-inject",
		"-in", filepath.Join(work, "test.pcap"), "-out", adv,
		"-strategy", "GFW: Injected RST Bad TCP-Checksum/MD5-Option",
		"-fraction", "0.5", "-truth", truth)
	if !strings.Contains(out, "attacked") {
		t.Fatalf("attack-inject output unexpected: %s", out)
	}
	truthData, err := os.ReadFile(truth)
	if err != nil || len(truthData) == 0 {
		t.Fatalf("ground truth file empty: %v", err)
	}

	// 3. Train a small detector.
	out = run(t, tools, "clap-train", "-in", benign, "-model", model,
		"-rnn-epochs", "4", "-ae-epochs", "6", "-quiet")
	if !strings.Contains(out, "saved to") {
		t.Fatalf("clap-train output unexpected: %s", out)
	}

	// 4. Detect with calibration; flagged connections must appear.
	out = run(t, tools, "clap-detect", "-in", adv, "-model", model,
		"-calibrate", benign, "-fpr", "0.05", "-top", "3")
	if !strings.Contains(out, "connections flagged") {
		t.Fatalf("clap-detect output unexpected: %s", out)
	}

	// 5. Score-only mode ranks connections.
	out = run(t, tools, "clap-detect", "-in", adv, "-model", model)
	if !strings.Contains(out, "top connections by adversarial score") {
		t.Fatalf("clap-detect rank mode unexpected: %s", out)
	}
}

// goRun drives a command through `go run` from a fresh clone's module
// root, the way DESIGN.md documents the workflow.
func goRun(t *testing.T, pkg string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", pkg}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %s %v: %v\n%s", pkg, args, err, out)
	}
	return string(out)
}

// scoreLines extracts the "<key> score=<x>" lines from -all output.
func scoreLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "score=") {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestClapDetectEndToEnd drives the full clap-detect deployment path via
// `go run`: generate traffic, inject an attack, train, then score the
// suspect pcap — and checks that the per-connection score output is
// byte-identical across engine worker/shard counts.
func TestClapDetectEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	work := t.TempDir()
	benign := filepath.Join(work, "benign.pcap")
	suspect := filepath.Join(work, "suspect.pcap")
	adv := filepath.Join(work, "adv.pcap")
	model := filepath.Join(work, "clap.model")

	goRun(t, "./cmd/trafficgen", "-out", benign, "-connections", "80", "-seed", "11")
	goRun(t, "./cmd/trafficgen", "-out", suspect, "-connections", "30", "-seed", "12")
	goRun(t, "./cmd/attack-inject",
		"-in", suspect, "-out", adv,
		"-strategy", "GFW: Injected RST Bad TCP-Checksum/MD5-Option",
		"-fraction", "0.4")
	goRun(t, "./cmd/clap-train", "-in", benign, "-model", model,
		"-rnn-epochs", "3", "-ae-epochs", "4", "-quiet")

	// Scores out: every connection with -all, one worker — the reference.
	serial := goRun(t, "./cmd/clap-detect", "-in", adv, "-model", model,
		"-all", "-workers", "1")
	serialScores := scoreLines(serial)
	if len(serialScores) < 30 {
		t.Fatalf("expected >= 30 scored connections, got %d:\n%s", len(serialScores), serial)
	}

	// The parallel engine must reproduce it byte-for-byte at every worker
	// count. The micro-batch size is a constant here; the engine's
	// TestWindowErrorsBatchedBitIdentity pins other sizes to the serial
	// oracle.
	for _, wk := range []string{"4", "8"} {
		par := goRun(t, "./cmd/clap-detect", "-in", adv, "-model", model,
			"-all", "-workers", wk)
		parScores := scoreLines(par)
		if len(parScores) != len(serialScores) {
			t.Fatalf("workers=%s: %d scored connections, serial %d",
				wk, len(parScores), len(serialScores))
		}
		for i := range parScores {
			if parScores[i] != serialScores[i] {
				t.Fatalf("workers=%s: line %d diverged\nparallel: %s\nserial:   %s",
					wk, i, parScores[i], serialScores[i])
			}
		}
	}

	// The matrix kernel changes the wall clock and nothing else: the default
	// build (AVX2 panels where the CPU has them) and a -tags purego build
	// (the portable Go kernel) must print the same bytes — the six-decimal
	// report and the full-precision -json stream.
	build := func(tool, tags string) string {
		bin := filepath.Join(work, tool+"-"+tags)
		if out, err := exec.Command("go", "build", "-tags", tags, "-o", bin, "./cmd/"+tool).CombinedOutput(); err != nil {
			t.Fatalf("go build -tags %q ./cmd/%s: %v\n%s", tags, tool, err, out)
		}
		return bin
	}
	detect := func(tags string) func(mode string) string {
		bin := build("clap-detect", tags)
		return func(mode string) string {
			var stdout, stderr strings.Builder
			cmd := exec.Command(bin, "-in", adv, "-model", model, mode)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s %s: %v\n%s", bin, mode, err, stderr.String())
			}
			return stdout.String()
		}
	}
	defaultKernel, goKernel := detect(""), detect("purego")
	for _, mode := range []string{"-all", "-json"} {
		got, want := defaultKernel(mode), goKernel(mode)
		if got != want {
			t.Fatalf("clap-detect %s differs between the default and the purego kernel:\ndefault:\n%s\npurego:\n%s",
				mode, got, want)
		}
		if mode == "-all" && len(scoreLines(got)) != len(serialScores) {
			t.Fatalf("kernel diff compared %d score lines, want %d", len(scoreLines(got)), len(serialScores))
		}
	}

	// So does training's: clap-train on the per-sample passes of the purego
	// build writes the model the panels wrote, byte for byte.
	goModel := filepath.Join(work, "clap-purego.model")
	if out, err := exec.Command(build("clap-train", "purego"), "-in", benign, "-model", goModel,
		"-rnn-epochs", "3", "-ae-epochs", "4", "-quiet").CombinedOutput(); err != nil {
		t.Fatalf("clap-train (purego): %v\n%s", err, out)
	}
	panelBytes, err := os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	goBytes, err := os.ReadFile(goModel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(panelBytes, goBytes) {
		t.Fatalf("clap-train wrote different models on the default and the purego build (%d and %d bytes)", len(panelBytes), len(goBytes))
	}

	// Calibrated mode still flags connections through the engine.
	out := goRun(t, "./cmd/clap-detect", "-in", adv, "-model", model,
		"-calibrate", benign, "-fpr", "0.05", "-workers", "4")
	if !strings.Contains(out, "connections flagged") {
		t.Fatalf("calibrated run missing flag summary:\n%s", out)
	}

	// The -json sink: one JSON object per connection plus a summary
	// trailer, deterministic across worker counts.
	jsonSerial := goRun(t, "./cmd/clap-detect", "-in", adv, "-model", model,
		"-json", "-workers", "1")
	jsonLines := jsonRecords(t, jsonSerial)
	if len(jsonLines) == 0 {
		t.Fatalf("-json emitted no JSON records:\n%s", jsonSerial)
	}
	var trailer struct {
		Summary     bool `json:"summary"`
		Connections int  `json:"connections"`
	}
	if err := json.Unmarshal([]byte(jsonLines[len(jsonLines)-1]), &trailer); err != nil || !trailer.Summary {
		t.Fatalf("missing JSON summary trailer: %v %s", err, jsonLines[len(jsonLines)-1])
	}
	if len(jsonLines) != trailer.Connections+1 || trailer.Connections < 30 {
		t.Fatalf("-json emitted %d records for %d connections (+1 summary)", len(jsonLines), trailer.Connections)
	}
	jsonPar := goRun(t, "./cmd/clap-detect", "-in", adv, "-model", model,
		"-json", "-workers", "8")
	parLines := jsonRecords(t, jsonPar)
	if len(parLines) != len(jsonLines) {
		t.Fatalf("-json emitted %d records at workers=8, %d at workers=1", len(parLines), len(jsonLines))
	}
	for i := range jsonLines {
		if parLines[i] != jsonLines[i] {
			t.Fatalf("-json line %d diverged across worker counts:\n%s\n%s", i, parLines[i], jsonLines[i])
		}
	}

	// The JSON scores must be the same numbers the text report printed.
	var first struct {
		Key   string  `json:"key"`
		Score float64 `json:"score"`
	}
	if err := json.Unmarshal([]byte(jsonLines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("score=%.6f", first.Score); !strings.Contains(serialScores[0], want) {
		t.Fatalf("JSON score %s not in text line %q", want, serialScores[0])
	}
}

// jsonRecords splits -json stdout into JSON lines, skipping log output.
func jsonRecords(t *testing.T, out string) []string {
	t.Helper()
	var recs []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "{") {
			if !json.Valid([]byte(l)) {
				t.Fatalf("invalid JSON line: %s", l)
			}
			recs = append(recs, l)
		}
	}
	return recs
}

// TestBackendFlagEndToEnd trains every registered backend through
// clap-train -backend and scores a suspect capture with clap-detect on the
// resulting model — the tagged persistence header must route each model to
// its own decoder.
func TestBackendFlagEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	tools := buildTools(t)
	work := t.TempDir()
	benign := filepath.Join(work, "benign.pcap")
	suspect := filepath.Join(work, "suspect.pcap")
	adv := filepath.Join(work, "adv.pcap")

	run(t, tools, "trafficgen", "-out", benign, "-connections", "60", "-seed", "21")
	run(t, tools, "trafficgen", "-out", suspect, "-connections", "20", "-seed", "22")
	run(t, tools, "attack-inject",
		"-in", suspect, "-out", adv,
		"-strategy", "GFW: Injected RST Bad TCP-Checksum/MD5-Option",
		"-fraction", "0.5")

	for _, tag := range []string{"clap", "baseline1"} {
		model := filepath.Join(work, tag+".model")
		out := run(t, tools, "clap-train", "-in", benign, "-model", model,
			"-backend", tag, "-rnn-epochs", "2", "-ae-epochs", "3", "-quiet")
		if !strings.Contains(out, "saved to") {
			t.Fatalf("clap-train -backend %s: %s", tag, out)
		}
		out = run(t, tools, "clap-detect", "-in", adv, "-model", model, "-all")
		scores := scoreLines(out)
		if len(scores) < 20 {
			t.Fatalf("backend %s scored %d connections, want >= 20:\n%s", tag, len(scores), out)
		}
		if !strings.Contains(out, "top connections by adversarial score:") {
			t.Fatalf("backend %s missing ranking:\n%s", tag, out)
		}
	}

	// A negative worker count is an error, not "all cores".
	runFails(t, tools, "-workers -2", "clap-detect", "-in", adv, "-model", filepath.Join(work, "clap.model"), "-workers", "-2")

	// -escalate-fpr reaches the cascade's own range check whenever it is
	// set: a negative or NaN override is refused, not silently ignored.
	cascade := filepath.Join(work, "cascade.model")
	run(t, tools, "clap-train", "-in", benign, "-model", cascade,
		"-backend", "cascade:baseline1+clap", "-rnn-epochs", "2", "-ae-epochs", "3", "-quiet")
	for _, bad := range []string{"-0.1", "NaN"} {
		runFails(t, tools, "must be in (0, 1)", "clap-detect", "-in", adv, "-model", cascade, "-escalate-fpr", bad)
		runFails(t, tools, "must be in (0, 1)", "clap-serve", "-model", cascade, "-escalate-fpr", bad)
	}
	// clap-detect reads both FPR targets only when it calibrates, so either
	// one set without -calibrate is refused rather than dropped.
	runFails(t, tools, "-calibrate, which is not set", "clap-detect", "-in", adv, "-model", cascade, "-escalate-fpr", "0.2")
	runFails(t, tools, "-calibrate, which is not set", "clap-detect", "-in", adv, "-model", cascade, "-fpr", "0.05")
	run(t, tools, "clap-detect", "-in", adv, "-model", cascade, "-calibrate", benign, "-fpr", "0.05", "-escalate-fpr", "0.2")
	// -calibrate chooses the threshold, so a -threshold beside it would be
	// dropped; both commands refuse the pair.
	runFails(t, tools, "give one of the two", "clap-detect", "-in", adv, "-model", cascade, "-threshold", "0.1", "-calibrate", benign)
	runFails(t, tools, "give one of the two", "clap-serve", "-model", cascade, "-threshold", "0.1", "-calibrate", benign)
	// clap-serve sizes: a negative count is an error, not a default.
	runFails(t, tools, "Workers -2", "clap-serve", "-model", filepath.Join(work, "clap.model"), "-workers", "-2")

	// Training needs at least one epoch of each network; fewer would save
	// an untrained model.
	runFails(t, tools, "-rnn-epochs -3", "clap-train", "-in", benign, "-model", filepath.Join(work, "untrained.model"),
		"-rnn-epochs", "-3", "-ae-epochs", "-2")
	if _, err := os.Stat(filepath.Join(work, "untrained.model")); err == nil {
		t.Fatal("clap-train saved a model with -rnn-epochs -3")
	}

	// Only a cascade has an escalation budget: on any other backend
	// -escalate-fpr is refused before training, and no model is written.
	runFails(t, tools, "applies to cascade models", "clap-train", "-in", benign, "-model", filepath.Join(work, "escalate.model"),
		"-backend", "clap", "-escalate-fpr", "5")
	if _, err := os.Stat(filepath.Join(work, "escalate.model")); err == nil {
		t.Fatal("clap-train saved a clap model with -escalate-fpr 5")
	}

	// Kitsune is an evaluation baseline, not a registered backend.
	out, err := exec.Command(filepath.Join(tools, "clap-train"), "-in", benign,
		"-model", filepath.Join(work, "kit.model"), "-backend", "kitsune").CombinedOutput()
	if err == nil || !strings.Contains(string(out), `unknown tag "kitsune"`) {
		t.Fatalf("clap-train -backend kitsune: err %v, want an unknown-tag failure:\n%s", err, out)
	}
}

// TestClapServeDaemon boots the clap-serve binary on a bounded soak
// source, drives its ops API over HTTP (health, metrics, flagged,
// threshold, hot reload to a different backend tag), and asserts a clean
// drain on SIGTERM.
func TestClapServeDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	tools := buildTools(t)
	work := t.TempDir()
	benign := filepath.Join(work, "benign.pcap")
	clapModel := filepath.Join(work, "clap.model")
	b1Model := filepath.Join(work, "b1.model")

	run(t, tools, "trafficgen", "-out", benign, "-connections", "60", "-seed", "5")
	run(t, tools, "clap-train", "-in", benign, "-model", clapModel,
		"-rnn-epochs", "3", "-ae-epochs", "4", "-quiet")
	run(t, tools, "clap-train", "-in", benign, "-model", b1Model,
		"-backend", "baseline1", "-rnn-epochs", "2", "-ae-epochs", "3", "-quiet")

	cmd := exec.Command(filepath.Join(tools, "clap-serve"),
		"-model", clapModel, "-addr", "127.0.0.1:0",
		"-calibrate", benign, "-fpr", "0.25",
		"-source", "soak:40:0:0.4", "-soak-seed", "8")
	var logBuf syncBuffer
	cmd.Stdout = &logBuf
	cmd.Stderr = &logBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon logs its ephemeral ops address; wait for it.
	var base string
	deadline := time.Now().Add(60 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its ops API:\n%s", logBuf.String())
		}
		for _, line := range strings.Split(logBuf.String(), "\n") {
			if i := strings.Index(line, "listening on http://"); i >= 0 {
				base = strings.TrimSpace(line[i+len("listening on "):])
			}
		}
		time.Sleep(50 * time.Millisecond)
	}

	getBody := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v\nlog:\n%s", path, err, logBuf.String())
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
		}
		return string(body)
	}

	if h := getBody("/healthz"); !strings.Contains(h, `"status": "ok"`) {
		t.Fatalf("healthz: %s", h)
	}
	// Wait for the bounded soak to drain through the scorer.
	for !strings.Contains(getBody("/metrics"), "clap_serve_connections_scored_total 40") {
		if time.Now().After(deadline) {
			t.Fatalf("soak never finished:\n%s\n%s", getBody("/metrics"), logBuf.String())
		}
		time.Sleep(100 * time.Millisecond)
	}
	if f := getBody("/v1/flagged"); strings.Contains(f, `"total_flagged": 0`) {
		t.Fatalf("nothing flagged at a 25%% FPR threshold over a 40%% attacked soak:\n%s", f)
	}

	// Hot reload to the baseline1 model over HTTP.
	resp, err := http.Post(base+"/v1/reload", "application/json",
		strings.NewReader(fmt.Sprintf(`{"path": %q}`, b1Model)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"tag": "baseline1"`) {
		t.Fatalf("reload: %s: %s", resp.Status, body)
	}
	if m := getBody("/metrics"); !strings.Contains(m, "clap_serve_reloads_total 1") ||
		!strings.Contains(m, `clap_serve_model_info{tag="baseline1"} 1`) {
		t.Fatalf("metrics missing reload accounting:\n%s", m)
	}

	// Graceful shutdown: SIGTERM drains and exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly: %v\n%s", err, logBuf.String())
	}
	if !strings.Contains(logBuf.String(), "shutdown complete") {
		t.Fatalf("missing clean shutdown message:\n%s", logBuf.String())
	}
}

// syncBuffer is a goroutine-safe byte buffer for capturing daemon output
// while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}

func TestAttackInjectList(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	tools := buildTools(t)
	out := run(t, tools, "attack-inject", "-list")
	for _, want := range []string{"symtcp", "liberate", "geneva", "Injected RST Pure"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q", want)
		}
	}
	if n := strings.Count(out, "["); n < 73 {
		t.Errorf("-list shows %d entries, want >= 73", n)
	}
}

// updateGolden rewrites testdata/clap-eval-tiny.golden from this build's
// report instead of comparing against it: go test -run
// TestClapEvalTinyProfile -update . A change that moves the golden lists
// the moved cells where it records the change.
var updateGolden = flag.Bool("update", false, "rewrite testdata/clap-eval-tiny.golden")

// TestClapEvalTinyProfile pins every detection number of the tiny-profile
// evaluation — Tables 1 to 9 and Figures 6 to 12, seed 1 — against a
// committed golden report. The profile trains and scores deterministically
// on any worker count and kernel, so only the wall-clock cells are masked.
func TestClapEvalTinyProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	tools := buildTools(t)
	runFails(t, tools, "-workers -1", "clap-eval", "-profile", "tiny", "-workers", "-1")
	// A profile typo is refused before training, not run as "fast".
	for _, bad := range []string{"ful", "Full"} {
		runFails(t, tools, "want tiny, fast or full", "clap-eval", "-profile", bad)
	}
	report := filepath.Join(t.TempDir(), "report.txt")
	run(t, tools, "clap-eval", "-profile", "tiny", "-quiet", "-out", report)
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	got := maskThroughput(string(data))
	golden := filepath.Join("testdata", "clap-eval-tiny.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("tiny-profile report differs from %s at line %d (rerun with -update only if the move is intended):\n got: %q\nwant: %q", golden, i+1, g, w)
		}
	}
}

var number = regexp.MustCompile(`[-+]?[0-9][0-9.]*`)

// maskThroughput replaces the wall-clock cells of a clap-eval report with
// "#": every number in Table 3's rows (throughput, the gain over Kitsune
// and the worker count) and Table 9's Pkts/s and Speedup columns, the last
// two. Every other byte of the report is deterministic.
func maskThroughput(report string) string {
	lines := strings.Split(report, "\n")
	table := ""
	for i, line := range lines {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
			table = ""
		case f[0] == "Table":
			table = f[1]
		case table == "3:":
			lines[i] = strings.Join(strings.Fields(number.ReplaceAllString(line, "#")), " ")
		case table == "9:" && f[0] != "Esc-FPR" && len(f) > 5:
			lines[i] = strings.Join(append(f[:5], "#"), " ")
		}
	}
	return strings.Join(lines, "\n")
}
