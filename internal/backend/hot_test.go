package backend

import (
	"math"
	"strings"
	"sync"
	"testing"

	"clap/internal/flow"
	"clap/internal/trafficgen"
)

func tinyCorpus(n int, seed int64) []*flow.Connection {
	cfg := trafficgen.DefaultConfig(n)
	cfg.Seed = seed
	return trafficgen.Generate(cfg)
}

func trainedBackend(t *testing.T, tag string) Backend {
	t.Helper()
	b, err := New(tag)
	if err != nil {
		t.Fatal(err)
	}
	if cb, ok := b.(*CLAP); ok {
		cb.Cfg.RNNEpochs, cb.Cfg.AEEpochs = 2, 3
	}
	if err := b.Train(tinyCorpus(25, 1), func(string, ...any) {}); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestHotRejectsUntrained(t *testing.T) {
	if _, err := NewHot(nil); err == nil {
		t.Fatal("NewHot(nil) succeeded")
	}
	untrained, _ := New(TagCLAP)
	if _, err := NewHot(untrained); err == nil {
		t.Fatal("NewHot accepted an untrained backend")
	}
	h, err := NewHot(trainedBackend(t, TagCLAP))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Swap(untrained); err == nil {
		t.Fatal("Swap accepted an untrained backend")
	}
	if _, err := h.Swap(nil); err == nil {
		t.Fatal("Swap accepted nil")
	}
	if h.Generation() != 0 {
		t.Fatalf("failed swaps bumped generation to %d", h.Generation())
	}
}

// TestHotDelegatesAndSwaps: the handle is a faithful Backend before and
// after a swap, and Swap returns the previous model.
func TestHotDelegatesAndSwaps(t *testing.T) {
	a := trainedBackend(t, TagCLAP)
	b := trainedBackend(t, TagBaseline1)
	h, err := NewHot(a)
	if err != nil {
		t.Fatal(err)
	}
	probe := tinyCorpus(3, 9)

	if h.Tag() != a.Tag() || h.WindowSpan() != a.WindowSpan() || !h.Trained() {
		t.Fatal("handle does not delegate metadata to the initial model")
	}
	for _, c := range probe {
		if h.ScoreConn(c) != a.ScoreConn(c) {
			t.Fatal("handle score != initial model score")
		}
	}

	prev, err := h.Swap(b)
	if err != nil {
		t.Fatal(err)
	}
	if prev != a {
		t.Fatal("Swap did not return the previous model")
	}
	if h.Generation() != 1 || h.Tag() != TagBaseline1 {
		t.Fatalf("after swap: generation=%d tag=%s", h.Generation(), h.Tag())
	}
	for _, c := range probe {
		if h.ScoreConn(c) != b.ScoreConn(c) {
			t.Fatal("handle score != swapped model score")
		}
	}
}

// TestHotPairTransactions pins the (model, threshold) pair semantics:
// a fresh handle has no threshold (0), invalid thresholds are refused
// without touching the pair, Swap preserves an installed threshold,
// SwapPair replaces both, SetThreshold never disturbs the model or its
// generation, and SetThreshold(0) removes the threshold.
func TestHotPairTransactions(t *testing.T) {
	a := trainedBackend(t, TagCLAP)
	b := trainedBackend(t, TagBaseline1)
	h, err := NewHot(a)
	if err != nil {
		t.Fatal(err)
	}
	if m, th := h.CurrentPair(); m != a || th != 0 {
		t.Fatalf("fresh handle: model=%v th=%v, want the model and no threshold", m, th)
	}
	if err := h.SetThreshold(0.25); err != nil {
		t.Fatal(err)
	}
	// +Inf would silently disable flagging forever while looking set.
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := h.SetThreshold(bad); err == nil || !strings.Contains(err.Error(), "threshold must be finite and >= 0") {
			t.Fatalf("SetThreshold(%v): err = %v, want a refusal", bad, err)
		}
		if _, err := h.SwapPair(b, bad); err == nil {
			t.Fatalf("SwapPair(%v) succeeded", bad)
		}
	}
	if m, th, gen := h.CurrentPairGen(); m != a || th != 0.25 || gen != 0 {
		t.Fatalf("rejected updates changed the pair: model=%v th=%v gen=%d", m, th, gen)
	}

	// A tiny positive threshold is a threshold like any other.
	if err := h.SetThreshold(1e-12); err != nil {
		t.Fatal(err)
	}
	if err := h.SetThreshold(0.25); err != nil {
		t.Fatal(err)
	}
	if m, th := h.CurrentPair(); th != 0.25 || m != a || h.Generation() != 0 {
		t.Fatalf("after SetThreshold: model=%v th=%v gen=%d", m, th, h.Generation())
	}

	// A plain swap carries the threshold over (legacy reload flow).
	if _, err := h.Swap(b); err != nil {
		t.Fatal(err)
	}
	if m, th := h.CurrentPair(); th != 0.25 || m != b {
		t.Fatalf("Swap dropped the pair threshold: th=%v", th)
	}

	// SwapPair replaces both in one transaction.
	if _, err := h.SwapPair(a, 0.5); err != nil {
		t.Fatal(err)
	}
	if m, th := h.CurrentPair(); m != a || th != 0.5 || h.Generation() != 2 {
		t.Fatalf("after SwapPair: th=%v gen=%d", th, h.Generation())
	}
	if _, err := h.SwapPair(nil, 0.5); err == nil {
		t.Fatal("SwapPair accepted nil")
	}

	// 0 is "none": it removes the threshold and keeps the model.
	if err := h.SetThreshold(0); err != nil {
		t.Fatal(err)
	}
	if m, th, gen := h.CurrentPairGen(); m != a || th != 0 || gen != 2 {
		t.Fatalf("after SetThreshold(0): model=%v th=%v gen=%d", m, th, gen)
	}
}

// TestHotPairNeverMixes hammers SwapPair between two (model, threshold)
// bindings while readers pin pairs: every observed pair must be one of
// the two installed bindings, never a crossover. Race-clean under -race.
func TestHotPairNeverMixes(t *testing.T) {
	a := trainedBackend(t, TagCLAP)
	b := trainedBackend(t, TagBaseline1)
	const thA, thB = 0.125, 8.5
	h, err := NewHot(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetThreshold(thA); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	swapperDone := make(chan struct{})
	go func() {
		defer close(swapperDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if i%2 == 0 {
				_, err = h.SwapPair(b, thB)
			} else {
				_, err = h.SwapPair(a, thA)
			}
			if err != nil {
				t.Errorf("swap pair: %v", err)
				return
			}
		}
	}()

	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 5000; i++ {
				m, th := h.CurrentPair()
				if !(m == a && th == thA) && !(m == b && th == thB) {
					t.Errorf("mixed pair observed: model=%p th=%v", m, th)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	<-swapperDone
}

// TestHotConcurrentSwapAndScore runs scoring and swapping concurrently;
// under -race this pins the handle's synchronization, and every observed
// score must belong to one of the two models.
func TestHotConcurrentSwapAndScore(t *testing.T) {
	a := trainedBackend(t, TagCLAP)
	b := trainedBackend(t, TagBaseline1)
	h, err := NewHot(a)
	if err != nil {
		t.Fatal(err)
	}
	probe := tinyCorpus(6, 5)
	wantA := make([]float64, len(probe))
	wantB := make([]float64, len(probe))
	for i, c := range probe {
		wantA[i], wantB[i] = a.ScoreConn(c), b.ScoreConn(c)
	}

	stop := make(chan struct{})
	swapperDone := make(chan struct{})
	go func() {
		defer close(swapperDone)
		models := []Backend{b, a}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := h.Swap(models[i%2]); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
		}
	}()

	var scorers sync.WaitGroup
	for w := 0; w < 4; w++ {
		scorers.Add(1)
		go func() {
			defer scorers.Done()
			for round := 0; round < 50; round++ {
				for i, c := range probe {
					// Pin a snapshot: errors and summary must agree.
					m := h.Current()
					score, _ := m.Summarize(WindowErrors(m, c))
					if score != wantA[i] && score != wantB[i] {
						t.Errorf("conn %d: score %v from a mixed model", i, score)
						return
					}
				}
			}
		}()
	}
	scorers.Wait()
	close(stop)
	<-swapperDone
}
