package nn

import (
	"math"
	"math/rand"
	"testing"

	"clap/internal/allocbudget"
)

// gradBufs is the G buffers of ae's parameters, in Params order.
func gradBufs(ae *Autoencoder) [][]float64 {
	var gs [][]float64
	for _, p := range ae.Params() {
		gs = append(gs, p.G)
	}
	return gs
}

// trainInputs returns n samples of width w: normal values with ±0,
// denormals and values big enough to saturate a tanh (1 − a² = 0, so Δ
// turns ±0) scattered over them. Feature 0 is ±0 in every sample; on a
// model whose last layer has row 0 zeroed (tieOutput), every sample's
// reconstruction error there is exactly 0 at every step.
func trainInputs(n, w int, rng *rand.Rand) [][]float64 {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, 3e-320, 1e3, -1e3}
	xs := make([][]float64, n)
	for b := range xs {
		x := make([]float64, w)
		for j := range x {
			x[j] = rng.NormFloat64()
			if rng.Intn(4) == 0 {
				x[j] = specials[rng.Intn(len(specials))]
			}
		}
		x[0] = math.Copysign(0, float64(b%2)-0.5)
		xs[b] = x
	}
	return xs
}

// tieOutput zeroes row 0 of the last layer's weights, so output 0 is its
// bias, +0, and stays so: the row's gradient is all zeros while the
// targets are ±0.
func tieOutput(ae *Autoencoder) {
	l := ae.Layers[len(ae.Layers)-1]
	clear(l.W.W[:l.W.C])
}

// TestTrainBatchPanelsBitIdentical holds the panel training path to the
// per-sample passes, bit for bit: the loss and every weight and bias after
// each of five steps, on the CLAP chain, Baseline #1's, and a chain whose
// back-propagation runs on Wᵀ throughout, at every batch size from 1 to 33
// (one part below four samples, odd halves above), with ±0, denormals,
// saturated tanh units and exact L1 ties in the inputs.
func TestTrainBatchPanelsBitIdentical(t *testing.T) {
	probe := NewAutoencoder([]int{8, 5, 8}, rand.New(rand.NewSource(1)))
	_, onPanels := probe.trainPanels(trainInputs(2, 8, rand.New(rand.NewSource(2))), NewAdam(0).scratchFor(probe))
	if onPanels != (Kernel() == "avx2") {
		t.Fatalf("panel path ran: %v, kernel %s", onPanels, Kernel())
	}
	if !onPanels {
		t.Log("no panel kernel here: both sides run the per-sample passes")
	}
	for ci, sizes := range [][]int{{345, 160, 80, 40, 80, 160, 345}, {51, 5, 51}, {8, 5, 3, 5, 8}} {
		panel := NewAutoencoder(sizes, rand.New(rand.NewSource(int64(7+ci))))
		oracle := NewAutoencoder(sizes, rand.New(rand.NewSource(int64(7+ci))))
		tieOutput(panel)
		tieOutput(oracle)
		pps, ops := panel.Params(), oracle.Params()
		popt, oopt := NewAdam(0.01), NewAdam(0.01)
		popt.Register(pps...)
		oopt.Register(ops...)
		rng := rand.New(rand.NewSource(int64(100 + ci)))
		for n := 1; n <= 33; n++ {
			xs := trainInputs(n, sizes[0], rng)
			if rec := panel.Reconstruct(xs[0]); math.Float64bits(rec[0]) != 0 {
				t.Fatalf("%v batch %d: output 0 is %v, want the tie's +0", sizes, n, rec[0])
			}
			for step := 0; step < 5; step++ {
				lp := panel.trainBatch(xs, popt, 1, true)
				lo := oracle.trainBatch(xs, oopt, 1, false)
				if math.Float64bits(lp) != math.Float64bits(lo) {
					t.Fatalf("%v batch %d step %d: loss %v, per-sample %v", sizes, n, step, lp, lo)
				}
				for k, p := range pps {
					for i, w := range p.W {
						if want := ops[k].W[i]; math.Float64bits(w) != math.Float64bits(want) {
							t.Fatalf("%v batch %d step %d: param %d[%d] = %v, per-sample %v", sizes, n, step, k, i, w, want)
						}
					}
				}
			}
		}
	}
}

// sequentialStep is one training step with the whole batch summed as one
// part, in sample order, on the per-sample passes: the step without
// TrainBatch's split into halves.
func sequentialStep(ae *Autoencoder, xs [][]float64, opt *Adam, clip float64) float64 {
	s := opt.scratchFor(ae)
	loss := ae.trainSamples(xs, s, true)
	inv := 1.0 / float64(len(xs))
	for _, g := range s.grads {
		for i := range g {
			g[i] *= inv
		}
	}
	if clip > 0 {
		ClipGradients(clip, s.params...)
	}
	opt.Step()
	return loss * inv
}

// TestTrainBatchParallelMatchesSequential: TrainBatch's split of a batch
// into two halves (the arithmetic of the former two-worker step) changes
// only the order of the gradient sums, so its losses and model stay
// within 1e-9 of a step that sums the whole batch in one pass.
func TestTrainBatchParallelMatchesSequential(t *testing.T) {
	mk := func() (*Autoencoder, *Adam) {
		rng := rand.New(rand.NewSource(11))
		ae := NewAutoencoder([]int{8, 5, 3, 5, 8}, rng)
		opt := NewAdam(0.01)
		opt.Register(ae.Params()...)
		return ae, opt
	}
	batch := randVecs(16, 8, rand.New(rand.NewSource(12)))
	seq, seqOpt := mk()
	split, splitOpt := mk()
	for step := 0; step < 5; step++ {
		l1 := sequentialStep(seq, batch, seqOpt, 5)
		l2 := split.TrainBatch(batch, splitOpt, 5)
		if math.Abs(l1-l2) > 1e-9 {
			t.Fatalf("step %d: losses diverge: %g vs %g", step, l1, l2)
		}
	}
	x := batch[0]
	if math.Abs(seq.Error(x)-split.Error(x)) > 1e-9 {
		t.Fatalf("models diverged after split training: %g vs %g", seq.Error(x), split.Error(x))
	}
}

// TestTrainBatchParallelSmallBatchFallsBack: a batch below four samples is
// one part; a 2-sample batch must not panic or lose a sample, so its step
// is the one-pass step, bit for bit.
func TestTrainBatchParallelSmallBatchFallsBack(t *testing.T) {
	mk := func() (*Autoencoder, *Adam) {
		ae := NewAutoencoder([]int{4, 2, 4}, rand.New(rand.NewSource(13)))
		opt := NewAdam(0.01)
		opt.Register(ae.Params()...)
		return ae, opt
	}
	batch := [][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}}
	ae, opt := mk()
	ref, refOpt := mk()
	loss := ae.TrainBatch(batch, opt, 5)
	if loss <= 0 {
		t.Fatalf("loss = %g", loss)
	}
	if want := sequentialStep(ref, batch, refOpt, 5); math.Float64bits(loss) != math.Float64bits(want) {
		t.Fatalf("loss = %v, one-pass step %v", loss, want)
	}
	rps := ref.Params()
	for k, p := range ae.Params() {
		for i, w := range p.W {
			if want := rps[k].W[i]; math.Float64bits(w) != math.Float64bits(want) {
				t.Fatalf("param %d[%d] = %v, one-pass step %v", k, i, w, want)
			}
		}
	}
}

// TestAllocBudgetTrainBatch: once the first step has sized the scratch, a
// step on the panels allocates nothing, a smaller batch included. The
// chain runs both back-propagation layouts (inputs of 16 and of 5).
func TestAllocBudgetTrainBatch(t *testing.T) {
	if Kernel() != "avx2" {
		t.Skip("the budget is the panel path's, and this build or CPU has no panel kernel")
	}
	rng := rand.New(rand.NewSource(3))
	ae := NewAutoencoder([]int{48, 16, 5, 16, 48}, rng)
	opt := NewAdam(1e-3)
	opt.Register(ae.Params()...)
	big, small := randVecs(32, 48, rng), randVecs(7, 48, rng)
	ae.TrainBatch(big, opt, 5)
	allocbudget.AtMost(t, 0, func() {
		ae.TrainBatch(big, opt, 5)
		ae.TrainBatch(small, opt, 5)
	})
}

func BenchmarkTrainBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ae := NewAutoencoder([]int{345, 160, 80, 40, 80, 160, 345}, rng)
	opt := NewAdam(1e-3)
	opt.Register(ae.Params()...)
	batch := randVecs(32, 345, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ae.TrainBatch(batch, opt, 5)
	}
}
