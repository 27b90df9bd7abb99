package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Dense is one fully-connected layer with an optional tanh activation.
type Dense struct {
	W, B *Tensor
	Tanh bool
}

// apply computes the layer's output into out — the single source of the
// layer arithmetic, shared by the retaining forward pass and the pooled
// inference path so both are structurally bit-identical.
func (l *Dense) apply(in, out []float64) {
	l.W.MulVec(in, out)
	for j := range out {
		out[j] += l.B.W[j]
		if l.Tanh {
			out[j] = math.Tanh(out[j])
		}
	}
}

// Autoencoder is a symmetric MLP autoencoder trained with L1 reconstruction
// loss (§3.3(c)). Hidden layers use tanh; the output layer is linear so
// reconstruction error is measured in input units. The paper's CLAP
// configuration is 7 layers, input 345, bottleneck 40 (Table 6); Baseline #1
// uses 3 layers, input 51, bottleneck 5.
type Autoencoder struct {
	Sizes  []int
	Layers []*Dense

	// scratch pools per-layer activation buffers for the inference path so
	// concurrent Error/Errors callers do not allocate a full activation
	// chain per window. The zero value is ready to use, which keeps the
	// struct-literal construction site (persistence) working unchanged.
	scratch sync.Pool

	// batches pools flat ping-pong activation buffers for ErrorsBatch; like
	// scratch, the zero value is ready to use.
	batches sync.Pool
}

// NewAutoencoder builds a chain of len(sizes)-1 dense layers; sizes is the
// full unit chain including input and output, e.g.
// [345,160,80,40,80,160,345].
func NewAutoencoder(sizes []int, rng *rand.Rand) *Autoencoder {
	if len(sizes) < 2 {
		panic("nn: autoencoder needs at least input and output sizes")
	}
	if sizes[0] != sizes[len(sizes)-1] {
		panic("nn: autoencoder input and output sizes must match")
	}
	ae := &Autoencoder{Sizes: append([]int(nil), sizes...)}
	for i := 0; i+1 < len(sizes); i++ {
		ae.Layers = append(ae.Layers, &Dense{
			W:    NewXavier(sizes[i+1], sizes[i], rng),
			B:    NewTensor(sizes[i+1], 1),
			Tanh: i+2 < len(sizes), // all but the last layer
		})
	}
	return ae
}

// Params returns all parameter tensors.
func (ae *Autoencoder) Params() []*Tensor {
	out := make([]*Tensor, 0, len(ae.Layers)*2)
	for _, l := range ae.Layers {
		out = append(out, l.W, l.B)
	}
	return out
}

// InputSize returns the expected input dimensionality.
func (ae *Autoencoder) InputSize() int { return ae.Sizes[0] }

// BottleneckSize returns the smallest layer width.
func (ae *Autoencoder) BottleneckSize() int {
	min := ae.Sizes[0]
	for _, s := range ae.Sizes {
		if s < min {
			min = s
		}
	}
	return min
}

// forward computes all layer activations; acts[0] is the input, acts[i] the
// output of layer i-1.
func (ae *Autoencoder) forward(x []float64) [][]float64 {
	acts := make([][]float64, len(ae.Layers)+1)
	acts[0] = x
	for i, l := range ae.Layers {
		out := make([]float64, l.W.R)
		l.apply(acts[i], out)
		acts[i+1] = out
	}
	return acts
}

// Reconstruct returns the autoencoder's reconstruction of x.
func (ae *Autoencoder) Reconstruct(x []float64) []float64 {
	acts := ae.forward(x)
	return acts[len(acts)-1]
}

// errScratch is one pooled set of per-layer activation buffers.
type errScratch struct {
	acts [][]float64 // acts[i] has layer i's output width
}

func (ae *Autoencoder) getScratch() *errScratch {
	if v := ae.scratch.Get(); v != nil {
		return v.(*errScratch)
	}
	s := &errScratch{acts: make([][]float64, len(ae.Layers))}
	for i, l := range ae.Layers {
		s.acts[i] = make([]float64, l.W.R)
	}
	return s
}

// errorWith computes the L1 reconstruction error of x using pooled
// activation buffers. The operation order matches forward() exactly, so the
// result is bit-identical to the allocating path.
func (ae *Autoencoder) errorWith(s *errScratch, x []float64) float64 {
	cur := x
	for i, l := range ae.Layers {
		l.apply(cur, s.acts[i])
		cur = s.acts[i]
	}
	var sum float64
	for i := range x {
		sum += math.Abs(cur[i] - x[i])
	}
	return sum / float64(len(x))
}

// Error returns the mean absolute (L1) reconstruction error of x — CLAP's
// anomaly signal. Safe for concurrent use on a trained (no longer mutating)
// model: weights are only read and scratch buffers come from a sync.Pool.
func (ae *Autoencoder) Error(x []float64) float64 {
	s := ae.getScratch()
	e := ae.errorWith(s, x)
	ae.scratch.Put(s)
	return e
}

// Errors computes reconstruction errors for a batch, reusing one scratch
// set across the whole batch. Safe for concurrent use like Error. It is
// the serial oracle of ErrorsBatch, which scoring and training run; no
// production, evaluation or training code calls it.
func (ae *Autoencoder) Errors(xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	s := ae.getScratch()
	for i, x := range xs {
		out[i] = ae.errorWith(s, x)
	}
	ae.scratch.Put(s)
	return out
}

// batchScratch is one pooled pair of flat row-major activation buffers for
// the batched forward pass; each holds rows×maxWidth float64s.
type batchScratch struct {
	rows int
	a, b []float64
}

// maxWidth returns the widest layer of the chain (the flat buffer stride
// bound).
func (ae *Autoencoder) maxWidth() int {
	max := 0
	for _, s := range ae.Sizes {
		if s > max {
			max = s
		}
	}
	return max
}

func (ae *Autoencoder) getBatchScratch(rows int) *batchScratch {
	if v := ae.batches.Get(); v != nil {
		if s := v.(*batchScratch); s.rows >= rows {
			return s
		}
		// Too small for this batch: drop it and size up.
	}
	w := ae.maxWidth()
	return &batchScratch{rows: rows, a: make([]float64, rows*w), b: make([]float64, rows*w)}
}

// ErrorsBatch computes the L1 reconstruction errors of a whole window
// stack in one forward pass per layer: every layer runs as a single
// matrix-matrix multiply over the batch instead of len(xs) matrix-vector
// passes — on the AVX2 panel kernel with feature-major activations where
// the CPU has it (errorsPanels, kernel_amd64.go), through Tensor.MulMat
// on row-major activations otherwise. Element k is bit-identical to
// Error(xs[k]) at any batch size on either path — both kernels preserve
// MulVec's per-element arithmetic, the bias/tanh/L1 arithmetic is applied
// in the same per-element order as the unbatched path, and the panel
// path's vector tanh (tanhs) is math.Tanh's bits. Scratch
// buffers are pooled; like Error/Errors, ErrorsBatch is safe for
// concurrent use on a trained (no longer mutating) model.
func (ae *Autoencoder) ErrorsBatch(xs [][]float64) []float64 {
	n := len(xs)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	in := ae.Sizes[0]
	for _, x := range xs {
		if len(x) != in {
			panic(fmt.Sprintf("nn: ErrorsBatch input width %d, want %d", len(x), in))
		}
	}
	if ae.errorsPanels(xs, out) {
		return out
	}
	s := ae.getBatchScratch(n)
	cur, nxt := s.a, s.b
	for b, x := range xs {
		copy(cur[b*in:(b+1)*in], x)
	}
	width := in
	for _, l := range ae.Layers {
		r := l.W.R
		l.W.MulMat(cur[:n*width], n, nxt[:n*r])
		bias := l.B.W[:r]
		for b := 0; b < n; b++ {
			o := nxt[b*r : b*r+r]
			if l.Tanh {
				for i, bv := range bias {
					o[i] = math.Tanh(o[i] + bv)
				}
			} else {
				for i, bv := range bias {
					o[i] += bv
				}
			}
		}
		cur, nxt = nxt, cur
		width = r
	}
	for b, x := range xs {
		rec := cur[b*width : b*width+width]
		var sum float64
		for i := range x {
			sum += math.Abs(rec[i] - x[i])
		}
		out[b] = sum / float64(len(x))
	}
	s.a, s.b = cur, nxt // keep the swap state consistent for reuse
	ae.batches.Put(s)
	return out
}

// backward adds one sample's gradients into grads — each layer's W then B
// buffer, in Params order — from its forward activations, and returns the
// sample's L1 loss.
func (ae *Autoencoder) backward(acts [][]float64, grads [][]float64) float64 {
	n := len(acts[0])
	out := acts[len(acts)-1]
	x := acts[0]
	var loss float64
	delta := make([]float64, n)
	for i := range out {
		d := out[i] - x[i]
		loss += math.Abs(d)
		// d/dy |y-x| = sign(y-x); scale by 1/n to match Error().
		switch {
		case d > 0:
			delta[i] = 1.0 / float64(n)
		case d < 0:
			delta[i] = -1.0 / float64(n)
		}
	}
	for i := len(ae.Layers) - 1; i >= 0; i-- {
		l := ae.Layers[i]
		in := acts[i]
		if l.Tanh {
			out := acts[i+1]
			for j := range delta {
				delta[j] *= 1 - out[j]*out[j]
			}
		}
		addOuter(grads[2*i], l.W.C, delta, in)
		gb := grads[2*i+1]
		for j, v := range delta {
			gb[j] += v
		}
		if i > 0 {
			next := make([]float64, len(in))
			l.W.MulVecT(delta, next)
			delta = next
		}
	}
	return loss / float64(n)
}
