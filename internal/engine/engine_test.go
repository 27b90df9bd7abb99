package engine

import (
	"math/rand"
	"sync"
	"testing"

	"clap/internal/attacks"
	"clap/internal/backend"
	"clap/internal/core"
	"clap/internal/flow"
	"clap/internal/tcpstate"
	"clap/internal/trafficgen"
)

// genConns builds a deterministic benign corpus.
func genConns(n int, seed int64) []*flow.Connection {
	cfg := trafficgen.DefaultConfig(n)
	cfg.Seed = seed
	return trafficgen.Generate(cfg)
}

// mixedCorpus returns benign connections with a few evasion strategies
// injected — the determinism tests' workload.
func mixedCorpus(t *testing.T, n int, seed int64) []*flow.Connection {
	t.Helper()
	conns := genConns(n, seed)
	rng := rand.New(rand.NewSource(seed))
	applied := 0
	for i, name := range []string{
		"GFW: Injected RST Bad TCP-Checksum/MD5-Option",
		"Snort: Injected RST Pure",
		"Bad TCP Checksum (Min)",
	} {
		st, ok := attacks.ByName(name)
		if !ok {
			t.Fatalf("unknown strategy %q", name)
		}
		for j := i * 3; j < len(conns); j++ {
			if st.Apply(conns[j], rng) {
				conns[j].AttackName = name
				applied++
				break
			}
		}
	}
	if applied == 0 {
		t.Fatal("no attack strategies applied to corpus")
	}
	return conns
}

var (
	detOnce sync.Once
	detDet  *core.Detector
	detErr  error
)

// tinyDetector trains one shared tiny-profile detector for all tests.
func tinyDetector(t *testing.T) *core.Detector {
	t.Helper()
	detOnce.Do(func() {
		detDet, detErr = core.Train(genConns(30, 1), core.TinyConfig(), nil)
	})
	if detErr != nil {
		t.Fatalf("training tiny detector: %v", detErr)
	}
	return detDet
}

// sameScore asserts bit-identity of two Score values.
func sameScore(t *testing.T, label string, i int, got, want core.Score) {
	t.Helper()
	if got.Adversarial != want.Adversarial {
		t.Fatalf("%s: conn %d adversarial score %v != serial %v", label, i, got.Adversarial, want.Adversarial)
	}
	if got.PeakWindow != want.PeakWindow {
		t.Fatalf("%s: conn %d peak window %d != serial %d", label, i, got.PeakWindow, want.PeakWindow)
	}
	if len(got.Errors) != len(want.Errors) {
		t.Fatalf("%s: conn %d has %d window errors, serial %d", label, i, len(got.Errors), len(want.Errors))
	}
	for w := range got.Errors {
		if got.Errors[w] != want.Errors[w] {
			t.Fatalf("%s: conn %d window %d error %v != serial %v", label, i, w, got.Errors[w], want.Errors[w])
		}
	}
}

// TestScoreAllDeterminism is the tentpole contract: engine scores over a
// mixed benign/adversarial corpus are bit-identical to the serial path, in
// the same order, at 1, 4 and 8 workers — full Score values fanned out
// with ParallelFor, the scalar scores ScoresBatched gives calibration and
// the evaluation code, and the window-error series WindowErrorsBatched
// gives the pipeline.
func TestScoreAllDeterminism(t *testing.T) {
	det := tinyDetector(t)
	b := backend.FromDetector(det)
	conns := mixedCorpus(t, 24, 7)

	want := make([]core.Score, len(conns))
	for i, c := range conns {
		want[i] = det.Score(c)
	}

	for _, workers := range []int{1, 4, 8} {
		eng := New(Options{Workers: workers})
		got := make([]core.Score, len(conns))
		eng.ParallelFor(len(conns), func(i int) { got[i] = det.Score(conns[i]) })
		for i := range got {
			sameScore(t, "ParallelFor", i, got[i], want[i])
		}
		adv := eng.ScoresBatched(b, conns)
		if len(adv) != len(want) {
			t.Fatalf("workers=%d: %d scores for %d connections", workers, len(adv), len(conns))
		}
		for i := range adv {
			if adv[i] != want[i].Adversarial {
				t.Fatalf("workers=%d: ScoresBatched[%d] = %v, want %v", workers, i, adv[i], want[i].Adversarial)
			}
		}
		errs := eng.WindowErrorsBatched(b, conns)
		for i := range errs {
			if len(errs[i]) != len(want[i].Errors) {
				t.Fatalf("workers=%d: WindowErrorsBatched[%d] length mismatch", workers, i)
			}
			for w := range errs[i] {
				if errs[i][w] != want[i].Errors[w] {
					t.Fatalf("workers=%d: WindowErrorsBatched[%d][%d] = %v, want %v", workers, i, w, errs[i][w], want[i].Errors[w])
				}
			}
		}
	}
}

// TestRNNAccuracyMatchesSerial checks the parallel stage-(a) evaluation
// against a serial sum of Detector.RNNAccuracyConn.
func TestRNNAccuracyMatchesSerial(t *testing.T) {
	det := tinyDetector(t)
	conns := genConns(16, 9)
	var wantH, wantT [tcpstate.NumClasses]int
	for _, c := range conns {
		h, n := det.RNNAccuracyConn(c)
		for cl := range h {
			wantH[cl] += h[cl]
			wantT[cl] += n[cl]
		}
	}
	for _, workers := range []int{1, 4} {
		eng := New(Options{Workers: workers})
		gotH, gotT := eng.RNNAccuracy(det, conns)
		if gotH != wantH || gotT != wantT {
			t.Fatalf("workers=%d: RNNAccuracy (%v,%v) != serial (%v,%v)", workers, gotH, gotT, wantH, wantT)
		}
	}
}

// TestAssembleMatchesSerial: sharded assembly must reproduce
// flow.Assemble's output exactly — same connections, same packet pointers,
// same capture order — at several shard counts.
func TestAssembleMatchesSerial(t *testing.T) {
	conns := genConns(80, 3)
	pkts := flow.Flatten(conns)
	want := flow.Assemble(pkts)

	for _, shards := range []int{1, 2, 4, 8} {
		eng := New(Options{Workers: 4, Shards: shards})
		got := eng.Assemble(pkts)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d connections, serial %d", shards, len(got), len(want))
		}
		for i := range got {
			if got[i].Key != want[i].Key {
				t.Fatalf("shards=%d: conn %d key %v, serial %v", shards, i, got[i].Key, want[i].Key)
			}
			if got[i].Len() != want[i].Len() {
				t.Fatalf("shards=%d: conn %d has %d packets, serial %d", shards, i, got[i].Len(), want[i].Len())
			}
			for p := range got[i].Packets {
				if got[i].Packets[p] != want[i].Packets[p] {
					t.Fatalf("shards=%d: conn %d packet %d differs from serial", shards, i, p)
				}
				if got[i].Dirs[p] != want[i].Dirs[p] {
					t.Fatalf("shards=%d: conn %d dir %d differs from serial", shards, i, p)
				}
			}
		}
	}
}

// TestConcurrentScoreSharedDetector overlaps Score calls from many
// goroutines on one shared trained detector — the -race regression test for
// the nn/core scratch-state audit.
func TestConcurrentScoreSharedDetector(t *testing.T) {
	det := tinyDetector(t)
	conns := mixedCorpus(t, 12, 21)
	want := make([]core.Score, len(conns))
	for i, c := range conns {
		want[i] = det.Score(c)
	}

	var wg sync.WaitGroup
	fail := make(chan string, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the corpus from a different offset so
			// identical connections are being scored at overlapping times.
			for k := 0; k < len(conns); k++ {
				i := (g + k) % len(conns)
				s := det.Score(conns[i])
				if s.Adversarial != want[i].Adversarial || s.PeakWindow != want[i].PeakWindow {
					fail <- "concurrent Score diverged from serial result"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
}

// TestParallelForCoversAll checks the scheduling primitive itself.
func TestParallelForCoversAll(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		eng := New(Options{Workers: workers})
		const n = 1000
		hits := make([]int32, n)
		var mu sync.Mutex
		total := 0
		eng.ParallelFor(n, func(i int) {
			mu.Lock()
			hits[i]++
			total++
			mu.Unlock()
		})
		if total != n {
			t.Fatalf("workers=%d: %d calls for %d items", workers, total, n)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestEngineDefaults(t *testing.T) {
	e := New(Options{})
	if e.Workers() < 1 || e.Shards() < 1 {
		t.Fatalf("default engine has %d workers / %d shards", e.Workers(), e.Shards())
	}
	if e2 := New(Options{Workers: 3}); e2.Shards() != 3 {
		t.Fatalf("shards should mirror workers, got %d", e2.Shards())
	}
}

// TestScoreBackendMatchesSerial pins the backend-agnostic scoring wrapper:
// engine scores through any Backend are bit-identical to the serial
// ScoreConn path, in input order, at several worker counts.
func TestScoreBackendMatchesSerial(t *testing.T) {
	det := tinyDetector(t)
	b := backend.FromDetector(det)
	conns := mixedCorpus(t, 18, 9)

	want := make([]float64, len(conns))
	wantErrs := make([][]float64, len(conns))
	for i, c := range conns {
		want[i] = b.ScoreConn(c)
		wantErrs[i] = backend.WindowErrors(b, c)
	}
	for _, workers := range []int{1, 4, 8} {
		eng := New(Options{Workers: workers})
		got := eng.ScoresBatched(b, conns)
		gotErrs := eng.WindowErrorsBatched(b, conns)
		for i := range conns {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: conn %d score %v != serial %v", workers, i, got[i], want[i])
			}
			if len(gotErrs[i]) != len(wantErrs[i]) {
				t.Fatalf("workers=%d: conn %d has %d errors, serial %d", workers, i, len(gotErrs[i]), len(wantErrs[i]))
			}
			for w := range gotErrs[i] {
				if gotErrs[i][w] != wantErrs[i][w] {
					t.Fatalf("workers=%d: conn %d window %d diverged", workers, i, w)
				}
			}
		}
	}
}
