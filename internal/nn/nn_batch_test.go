package nn

// Bit-identity tests for the batched inference kernels: MulMat vs MulVec,
// ErrorsBatch vs Error, ForwardGatesBatchPooled vs ForwardGates. "Identical"
// everywhere below means float64 bit equality (==), not tolerance — the
// batched kernels preserve the unbatched accumulation order by
// construction, and these tests pin that contract at batch sizes on both
// sides of the 4-lane blocking.

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"clap/internal/allocbudget"
)

func randVecs(n, w int, rng *rand.Rand) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, w)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

func TestMulMatMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, shape := range [][2]int{{13, 7}, {1, 5}, {4, 4}, {160, 345}} {
		r, c := shape[0], shape[1]
		w := NewXavier(r, c, rng)
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 23} {
			x := make([]float64, n*c)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			got := make([]float64, n*r)
			w.MulMat(x, n, got)
			want := make([]float64, r)
			for b := 0; b < n; b++ {
				w.MulVec(x[b*c:(b+1)*c], want)
				for i := range want {
					if got[b*r+i] != want[i] {
						t.Fatalf("shape (%d,%d) batch %d: row %d element %d = %v, MulVec %v",
							r, c, n, b, i, got[b*r+i], want[i])
					}
				}
			}
		}
	}
}

func TestMulMatShapePanics(t *testing.T) {
	w := NewTensor(3, 2)
	for _, bad := range []func(){
		func() { w.MulMat(make([]float64, 5), 2, make([]float64, 6)) }, // x too short
		func() { w.MulMat(make([]float64, 4), 2, make([]float64, 5)) }, // out too short
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("MulMat accepted a mismatched shape")
				}
			}()
			bad()
		}()
	}
}

func TestErrorsBatchBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ae := NewAutoencoder([]int{17, 9, 5, 9, 17}, rng)
	xs := randVecs(23, 17, rng)

	want := make([]float64, len(xs))
	for i, x := range xs {
		want[i] = ae.Error(x)
	}

	// Whole stack at once, then every chunking a micro-batching caller
	// could produce — all must reproduce the unbatched errors bit for bit.
	for _, batch := range []int{1, 2, 3, 4, 5, 7, 8, 16, len(xs)} {
		at := 0
		for lo := 0; lo < len(xs); lo += batch {
			hi := lo + batch
			if hi > len(xs) {
				hi = len(xs)
			}
			got := ae.ErrorsBatch(xs[lo:hi])
			for k, e := range got {
				if e != want[at+k] {
					t.Fatalf("batch=%d: window %d error %v, unbatched %v", batch, at+k, e, want[at+k])
				}
			}
			at = hi
		}
	}

	// And against the pooled serial batch path.
	serial := ae.Errors(xs)
	batched := ae.ErrorsBatch(xs)
	for i := range serial {
		if serial[i] != batched[i] {
			t.Fatalf("Errors[%d]=%v but ErrorsBatch[%d]=%v", i, serial[i], i, batched[i])
		}
	}

	if got := ae.ErrorsBatch(nil); len(got) != 0 {
		t.Fatalf("ErrorsBatch(nil) returned %d errors", len(got))
	}
}

func TestErrorsBatchWidthPanics(t *testing.T) {
	ae := NewAutoencoder([]int{6, 3, 6}, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("ErrorsBatch accepted a mis-sized window")
		}
	}()
	ae.ErrorsBatch([][]float64{make([]float64, 5)})
}

// TestForwardGatesBatchBitIdentity runs a hidden size the recurrence
// panels cannot take (6, MulVec) and one they can (16), and steps wider
// than In, whose first In values are the input.
func TestForwardGatesBatchBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, hidden := range []int{6, 16} {
		m := NewGRUClassifier(8, hidden, 3, rng)
		for _, T := range []int{0, 1, 2, 3, 4, 5, 11, 32} {
			seq := randVecs(T, 8, rng)
			wantZ, wantR := m.ForwardGates(seq)
			wide := make([][]float64, T)
			for ts, v := range seq {
				wide[ts] = append(append([]float64(nil), v...), 1e300, -1)
			}
			gotZ, gotR, release := m.ForwardGatesBatchPooled(wide)
			if len(gotZ) != len(wantZ) || len(gotR) != len(wantR) {
				t.Fatalf("H=%d T=%d: batched lengths (%d,%d), unbatched (%d,%d)", hidden, T, len(gotZ), len(gotR), len(wantZ), len(wantR))
			}
			for ts := 0; ts < T; ts++ {
				for i := range wantZ[ts] {
					if gotZ[ts][i] != wantZ[ts][i] {
						t.Fatalf("H=%d T=%d: Z[%d][%d] = %v, unbatched %v", hidden, T, ts, i, gotZ[ts][i], wantZ[ts][i])
					}
					if gotR[ts][i] != wantR[ts][i] {
						t.Fatalf("H=%d T=%d: R[%d][%d] = %v, unbatched %v", hidden, T, ts, i, gotR[ts][i], wantR[ts][i])
					}
				}
			}
			release()
		}
	}
}

// TestAllocBudgetForwardGatesBatchPooled: once a workspace is in the pool,
// a call allocates nothing — backing, row headers and release func
// included.
func TestAllocBudgetForwardGatesBatchPooled(t *testing.T) {
	m := NewGRUClassifier(8, 16, 3, rand.New(rand.NewSource(5)))
	seq := randVecs(9, 8, rand.New(rand.NewSource(6)))
	allocbudget.AtMost(t, 0, func() {
		_, _, release := m.ForwardGatesBatchPooled(seq)
		release()
	})
}

// TestForwardGatesBatchPooledBitIdentity exercises the pooled variant
// through repeated calls so recycled (dirty) backings are actually reused
// — the clear(hPrev) regression test.
func TestForwardGatesBatchPooledBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m := NewGRUClassifier(8, 6, 3, rng)
	for rep := 0; rep < 4; rep++ {
		for _, T := range []int{3, 11, 1, 7} {
			seq := randVecs(T, 8, rng)
			wantZ, wantR := m.ForwardGates(seq)
			gotZ, gotR, release := m.ForwardGatesBatchPooled(seq)
			for ts := 0; ts < T; ts++ {
				for i := range wantZ[ts] {
					if gotZ[ts][i] != wantZ[ts][i] || gotR[ts][i] != wantR[ts][i] {
						t.Fatalf("rep %d T=%d: pooled gates diverged at step %d unit %d", rep, T, ts, i)
					}
				}
			}
			release()
		}
	}

	// Table 6's GRU (input and hidden 32) with scaled weights and random
	// biases: the candidate's tanh inputs cover math.tanh's rational, exp
	// and saturated branches, and the gates' sigmoid inputs reach past
	// |x| = 708, where the sigmoid kernel leaves a group to the scalar
	// sigmoid.
	var tanhIn [3]int
	var wideGates int
	for _, scale := range []float64{8, 40, 600} {
		g := NewGRUClassifier(32, 32, 3, rng)
		for _, p := range g.Params() {
			for i := range p.W {
				p.W[i] *= scale
			}
		}
		for _, b := range []*Tensor{g.Bz, g.Br, g.Bh} {
			for i := range b.W {
				b.W[i] = scale * rng.NormFloat64()
			}
		}
		for rep := 0; rep < 2; rep++ {
			seq := randVecs(40, 32, rng)
			wantZ, wantR := g.ForwardGates(seq)
			gotZ, gotR, release := g.ForwardGatesBatchPooled(seq)
			for ts := range seq {
				for i := range wantZ[ts] {
					if math.Float64bits(gotZ[ts][i]) != math.Float64bits(wantZ[ts][i]) ||
						math.Float64bits(gotR[ts][i]) != math.Float64bits(wantR[ts][i]) {
						t.Fatalf("weights ×%v rep %d: pooled gates diverged at step %d unit %d", scale, rep, ts, i)
					}
				}
			}
			release()
			st := g.Forward(seq)
			hPrev := make([]float64, 32)
			az, tz := make([]float64, 32), make([]float64, 32)
			ah, th, rh := make([]float64, 32), make([]float64, 32), make([]float64, 32)
			for ts, x := range seq {
				g.Wz.MulVec(x, az)
				g.Uz.MulVec(hPrev, tz)
				for i := range rh {
					rh[i] = st.R[ts][i] * hPrev[i]
				}
				g.Wh.MulVec(x, ah)
				g.Uh.MulVec(rh, th)
				for i := range ah {
					tanhIn[tanhBranch(ah[i]+th[i]+g.Bh.W[i])]++
					if math.Abs(az[i]+tz[i]+g.Bz.W[i]) > 708 {
						wideGates++
					}
				}
				hPrev = st.H[ts]
			}
		}
	}
	for b, c := range tanhIn {
		if c == 0 {
			t.Fatalf("no candidate tanh input on branch %d (rational, exp, saturated): %v", b, tanhIn)
		}
	}
	if wideGates == 0 {
		t.Fatal("no update-gate input past |x| = 708")
	}
}

// TestErrorsBatchConcurrent overlaps batched and unbatched inference on one
// shared model — the -race regression test for the pooled batch scratch.
func TestErrorsBatchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ae := NewAutoencoder([]int{12, 6, 12}, rng)
	xs := randVecs(40, 12, rng)
	want := make([]float64, len(xs))
	for i, x := range xs {
		want[i] = ae.Error(x)
	}

	var wg sync.WaitGroup
	fail := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				// Alternate batch sizes so pooled scratch of different
				// generations interleaves; odd goroutines cross-check the
				// per-window path concurrently.
				if g%2 == 1 {
					i := (g + rep) % len(xs)
					if e := ae.Error(xs[i]); e != want[i] {
						fail <- "concurrent Error diverged"
						return
					}
					continue
				}
				lo := (g * 3) % 16
				got := ae.ErrorsBatch(xs[lo : lo+17])
				for k, e := range got {
					if e != want[lo+k] {
						fail <- "concurrent ErrorsBatch diverged"
						return
					}
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
