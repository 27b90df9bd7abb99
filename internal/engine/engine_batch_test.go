package engine

// Determinism tests for the micro-batched scoring path: batched window
// errors and scores must be bit-identical to the detector's serial oracle
// at every worker × batch combination, including batch sizes that
// straddle connection boundaries.

import (
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"clap/internal/backend"
	"clap/internal/core"
	"clap/internal/flow"
)

func TestWindowErrorsBatchedBitIdentity(t *testing.T) {
	det := tinyDetector(t)
	b := backend.FromDetector(det)
	conns := mixedCorpus(t, 70, 13)

	wantErrs := make([][]float64, len(conns))
	wantScore := make([]float64, len(conns))
	for i, c := range conns {
		wantErrs[i] = det.WindowErrors(c)
		wantScore[i] = det.Score(c).Adversarial
	}

	for _, workers := range []int{1, 4, 8} {
		for _, batch := range []int{1, 3, 8, 64, 1024} {
			eng := newBatched(workers, batch)
			gotErrs := eng.WindowErrorsBatched(b, conns)
			gotScore := eng.ScoresBatched(b, conns)
			for i := range conns {
				if gotScore[i] != wantScore[i] {
					t.Fatalf("workers=%d batch=%d: conn %d score %v != serial %v",
						workers, batch, i, gotScore[i], wantScore[i])
				}
				if len(gotErrs[i]) != len(wantErrs[i]) {
					t.Fatalf("workers=%d batch=%d: conn %d has %d errors, serial %d",
						workers, batch, i, len(gotErrs[i]), len(wantErrs[i]))
				}
				for w := range gotErrs[i] {
					if gotErrs[i][w] != wantErrs[i][w] {
						t.Fatalf("workers=%d batch=%d: conn %d window %d error %v != serial %v",
							workers, batch, i, w, gotErrs[i][w], wantErrs[i][w])
					}
				}
			}
		}
	}
}

// raggedCorpus builds a corpus whose window-sequence lengths are
// deliberately heterogeneous: the mixed benign/attack set plus
// single-packet truncations, shuffled deterministically so the short
// connections land between long ones.
func raggedCorpus(t *testing.T, n int, seed int64) []*flow.Connection {
	t.Helper()
	conns := mixedCorpus(t, n, seed)
	for i := 0; i < 4 && i < n; i++ {
		src := conns[i]
		conns = append(conns, &flow.Connection{
			Key:     src.Key,
			Packets: src.Packets[:1],
			Dirs:    src.Dirs[:1],
		})
	}
	rng := rand.New(rand.NewSource(seed + 7))
	rng.Shuffle(len(conns), func(i, j int) { conns[i], conns[j] = conns[j], conns[i] })
	return conns
}

func assertSeriesEqual(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: conn %d has %d errors, serial %d", label, i, len(got[i]), len(want[i]))
		}
		for w := range want[i] {
			if got[i][w] != want[i][w] {
				t.Fatalf("%s: conn %d window %d error %v != serial %v",
					label, i, w, got[i][w], want[i][w])
			}
		}
	}
}

// The four tests below keep the names of the cross-connection lockstep
// tests they grew from; the lockstep scheduler is gone, and each now pins
// the degenerate input it was written for on the one micro-batched path.

// TestLockstepBatchedBitIdentity: the ragged corpus — one-window
// connections shuffled between long ones — through the micro-batched path
// matches the serial path bit for bit.
func TestLockstepBatchedBitIdentity(t *testing.T) {
	det := tinyDetector(t)
	b := backend.FromDetector(det)
	conns := raggedCorpus(t, 50, 13)

	want := make([][]float64, len(conns))
	wantScore := make([]float64, len(conns))
	for i, c := range conns {
		want[i] = det.WindowErrors(c)
		wantScore[i] = det.Score(c).Adversarial
	}

	for _, workers := range []int{1, 4} {
		for _, batch := range []int{3, 24} {
			eng := newBatched(workers, batch)
			got := eng.WindowErrorsBatched(b, conns)
			label := "workers=" + strconv.Itoa(workers) + " batch=" + strconv.Itoa(batch)
			assertSeriesEqual(t, label, got, want)
			gotScore := eng.ScoresBatched(b, conns)
			for i := range conns {
				if gotScore[i] != wantScore[i] {
					t.Fatalf("%s: conn %d score %v != serial %v", label, i, gotScore[i], wantScore[i])
				}
			}
		}
	}
}

// TestLockstepOneConnectionGroup: a batch group holding a single
// connection, with more workers than connections, matches the serial path.
func TestLockstepOneConnectionGroup(t *testing.T) {
	det := tinyDetector(t)
	b := backend.FromDetector(det)
	conns := mixedCorpus(t, 5, 3)[:1]
	want := det.WindowErrors(conns[0])
	eng := newBatched(4, 8)
	got := eng.WindowErrorsBatched(b, conns)
	assertSeriesEqual(t, "single-conn group", got, [][]float64{want})
}

// TestLockstepGateFreeFallsBack: a gate-free model (Baseline #1's config)
// has no recurrence on its scoring path; its window production through the
// micro-batched path still matches the serial path bit for bit.
func TestLockstepGateFreeFallsBack(t *testing.T) {
	b := gateFreeBackend(t)
	conns := mixedCorpus(t, 12, 5)
	want := make([][]float64, len(conns))
	for i, c := range conns {
		want[i] = b.Det.WindowErrors(c)
	}
	eng := newBatched(2, 8)
	got := eng.WindowErrorsBatched(b, conns)
	assertSeriesEqual(t, "gate-free", got, want)
}

var (
	gateFreeB1  *backend.CLAP
	gateFreeErr error
)

// gateFreeBackend trains one shared tiny gate-free (Baseline #1 style)
// backend: no gate features, no stacking — no recurrence on the scoring
// path at all.
func gateFreeBackend(t *testing.T) *backend.CLAP {
	t.Helper()
	if gateFreeB1 == nil && gateFreeErr == nil {
		nb, err := backend.New(backend.TagBaseline1)
		if err == nil {
			b1 := nb.(*backend.CLAP)
			cfg := core.TinyConfig()
			cfg.UseUpdateGates, cfg.UseResetGates = false, false
			cfg.StackLength = 1
			b1.Cfg = cfg
			err = b1.Train(genConns(30, 1), nil)
			gateFreeB1 = b1
		}
		gateFreeErr = err
	}
	if gateFreeErr != nil {
		t.Fatalf("training gate-free backend: %v", gateFreeErr)
	}
	return gateFreeB1
}

// TestLockstepCascadeGroupPath pins the composite route through the
// engine: with roughly half the ragged corpus escalated, the cascade's
// per-connection series and its escalation counters — from
// WindowErrorsBatched and from a stream — match per-connection routing
// exactly, at every worker count, and ScoresBatched matches ScoreConn.
func TestLockstepCascadeGroupPath(t *testing.T) {
	conns := raggedCorpus(t, 40, 17)
	// Escalate roughly half the corpus: pin the escalation threshold to
	// the median stage-1 score so both branches of the routing run.
	casc := testCascade(t, 0.1, 0, conns, 0.5)

	want := make([][]float64, len(conns))
	for i, c := range conns {
		want[i] = backend.WindowErrors(casc, c)
	}
	wantEval, wantEsc := casc.EscalationCounts()
	if wantEsc == 0 || wantEsc == wantEval {
		t.Fatalf("degenerate routing: %d/%d escalated", wantEsc, wantEval)
	}

	for _, workers := range []int{1, 4} {
		casc.ResetEscalationCounts()
		eng := newBatched(workers, 8)
		got := eng.WindowErrorsBatched(casc, conns)
		assertSeriesEqual(t, "cascade workers="+strconv.Itoa(workers), got, want)
		gotEval, gotEsc := casc.EscalationCounts()
		if gotEval != wantEval || gotEsc != wantEsc {
			t.Fatalf("workers=%d: engine path counted %d/%d, routed path %d/%d",
				workers, gotEsc, gotEval, wantEsc, wantEval)
		}

		casc.ResetEscalationCounts()
		var streamed [][]float64
		var escalated atomic.Uint64
		s := NewStreamOf(eng, casc,
			func(*flow.Connection) (backend.Backend, []float64) { return casc, nil },
			func(_ *flow.Connection, _ backend.Backend, errs *[]float64, o Outcome) {
				if o.Escalated {
					escalated.Add(1)
				}
				*errs = o.Errs
			},
			func(_ *flow.Connection, errs []float64) { streamed = append(streamed, errs) },
			StreamHooks{})
		for _, c := range conns {
			s.Submit(c)
		}
		s.Close()
		assertSeriesEqual(t, "cascade stream workers="+strconv.Itoa(workers), streamed, want)
		gotEval, gotEsc = casc.EscalationCounts()
		if gotEval != wantEval || gotEsc != wantEsc || escalated.Load() != wantEsc {
			t.Fatalf("workers=%d: stream counted %d/%d (%d outcomes escalated), routed path %d/%d",
				workers, gotEsc, gotEval, escalated.Load(), wantEsc, wantEval)
		}
	}

	eng := newBatched(2, 8)
	gotScores := eng.ScoresBatched(casc, conns)
	for i, c := range conns {
		if w := casc.ScoreConn(c); gotScores[i] != w {
			t.Fatalf("conn %d: engine cascade score %v != serial %v", i, gotScores[i], w)
		}
	}
}

// TestCascadeRejectsStageWithoutPair: every leaf backend scores through
// the batched pair, so there is no unbatched path to fall back to —
// NewCascade and WithStage2 refuse a stage without the pair, and the
// engine names the missing capability instead of scoring.
func TestCascadeRejectsStageWithoutPair(t *testing.T) {
	b := backend.FromDetector(tinyDetector(t))
	bare := noBatch{b}
	if _, err := backend.NewCascade(bare, b, 0.1); err == nil {
		t.Fatal("NewCascade accepted a stage-1 without the batched pair")
	}
	casc, err := backend.NewCascade(b, b, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backend.NewCascade(b, bare, 0.1); err == nil {
		t.Fatal("NewCascade accepted a stage-2 without the batched pair")
	}
	if _, err := casc.WithStage2(bare); err == nil {
		t.Fatal("WithStage2 accepted a stage without the batched pair")
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "BatchScorer") {
			t.Fatalf("engine on a leaf without the pair: panic %q, want one naming BatchScorer", msg)
		}
	}()
	New(Options{Workers: 1}).ScoresBatched(bare, mixedCorpus(t, 2, 5))
}

// noBatch embeds the CLAP backend but shadows Windows with an
// incompatible method, hiding the BatchScorer capability.
type noBatch struct{ *backend.CLAP }

func (noBatch) Windows() {}

// newBatched is New with a micro-batch size other than DefaultBatch: the
// bit-identity tests pin the batcher at sizes no caller outside the
// package can choose.
func newBatched(workers, batch int) *Engine {
	e := New(Options{Workers: workers})
	e.batch = batch
	return e
}

func TestEngineBatchDefaults(t *testing.T) {
	if got := New(Options{}).Batch(); got != DefaultBatch {
		t.Fatalf("default batch %d, want %d", got, DefaultBatch)
	}
	if got := New(Options{Workers: 3, Shards: 5}).Batch(); got != DefaultBatch {
		t.Fatalf("batch %d with explicit workers and shards, want %d", got, DefaultBatch)
	}
}

// TestParallelForSmallInputStaysSerial pins the small-input fallback: every
// index is still visited exactly once when n is far below workers*minChunk.
func TestParallelForSmallInputStaysSerial(t *testing.T) {
	eng := New(Options{Workers: 8})
	for _, n := range []int{1, 3, 7, 31} {
		hits := make([]int, n)
		eng.ParallelFor(n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}
