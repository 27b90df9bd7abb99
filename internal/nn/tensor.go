// Package nn is the neural-network substrate for CLAP: a GRU sequence
// classifier that exposes its per-step gate activations (the inter-packet
// context carrier, §3.3(a)-(b)), a deep autoencoder trained with L1 loss
// (§3.3(c)), and the Adam optimiser, all in pure Go on float64 — except
// the AVX2 assembly on amd64 (kernel_amd64.s): one panel kernel under
// MulMat, the GRU recurrence and autoencoder training, and tanh/sigmoid
// kernels under the batched paths, each computing the same bits as the Go
// code it stands in for.
//
// Results are a function of the inputs and of the *rand.Rand a model is
// initialised from, and of nothing else: not of the CPU count, the kernel
// the CPU runs or the build tags. Training runs on the calling goroutine
// and starts none; the inference paths
// (GRU Forward/ForwardGates/ForwardGatesBatchPooled/Predict, Autoencoder
// Reconstruct/Error/Errors/ErrorsBatch)
// keep all scratch state per-call or pooled and are safe for concurrent use
// on a model that is no longer being mutated — the contract the parallel
// scoring engine (internal/engine) relies on. Gradient correctness is
// verified against finite differences in the package tests.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major matrix (or vector when C==1) together with
// its gradient accumulator.
type Tensor struct {
	R, C int
	W    []float64 // parameters, len R*C
	G    []float64 // accumulated gradients, same shape
}

// NewTensor allocates a zero tensor.
func NewTensor(r, c int) *Tensor {
	return &Tensor{R: r, C: c, W: make([]float64, r*c), G: make([]float64, r*c)}
}

// NewXavier allocates a tensor initialised with Xavier/Glorot uniform
// scaling, the init used for both models.
func NewXavier(r, c int, rng *rand.Rand) *Tensor {
	t := NewTensor(r, c)
	limit := math.Sqrt(6.0 / float64(r+c))
	for i := range t.W {
		t.W[i] = (rng.Float64()*2 - 1) * limit
	}
	return t
}

// At returns element (i,j).
func (t *Tensor) At(i, j int) float64 { return t.W[i*t.C+j] }

// ZeroGrad clears the gradient accumulator.
func (t *Tensor) ZeroGrad() {
	for i := range t.G {
		t.G[i] = 0
	}
}

// MulVec computes out = W·x (R×C times C) into out (length R). out may not
// alias x.
//
// It is the reference every batched kernel is held to, bit for bit: each
// element is s = s + round(w·x) for j ascending. The explicit float64
// conversion is a rounding point by the language spec, so no compiler may
// fuse the product into the sum (arm64 would; amd64 may under GOAMD64=v3)
// and the scores are the same bits on every architecture.
func (t *Tensor) MulVec(x, out []float64) {
	if len(x) != t.C || len(out) != t.R {
		panic(fmt.Sprintf("nn: MulVec shape mismatch: (%d,%d)·%d into %d", t.R, t.C, len(x), len(out)))
	}
	for i := 0; i < t.R; i++ {
		row := t.W[i*t.C : (i+1)*t.C]
		var s float64
		for j, v := range row {
			s += float64(v * x[j])
		}
		out[i] = s
	}
}

// mulMatLane is the portable MulMat's batch-blocking factor: six batch rows
// ride one pass over each weight row. The block cuts weight-row loads 6×
// (one wv load feeds six multiplies) and gives the inner loop six
// independent accumulator chains instead of MulVec's one — together they
// lift the scalar code from load-bound to near the scalar FP throughput
// limit. Six is the measured sweet spot: eight lanes spill accumulators to
// the stack and run slower, four leaves throughput on the table.
const mulMatLane = 6

// mul6 is mulMatGo's inner kernel: one weight row against six batch rows.
// It lives in its own function so the register allocator sees only the
// hot loop, and the re-slicing to len(row) up front lets the compiler
// drop every bounds check inside it. Each accumulator sums over j in
// ascending order with a rounded product — MulVec's arithmetic exactly.
func mul6(row, x0, x1, x2, x3, x4, x5 []float64) (s0, s1, s2, s3, s4, s5 float64) {
	n := len(row)
	x0, x1, x2 = x0[:n], x1[:n], x2[:n]
	x3, x4, x5 = x3[:n], x4[:n], x5[:n]
	for j, wv := range row {
		s0 += float64(wv * x0[j])
		s1 += float64(wv * x1[j])
		s2 += float64(wv * x2[j])
		s3 += float64(wv * x3[j])
		s4 += float64(wv * x4[j])
		s5 += float64(wv * x5[j])
	}
	return
}

// mul4 is the tail kernel for the up-to-five rows left over after the
// six-lane blocks.
func mul4(row, x0, x1, x2, x3 []float64) (s0, s1, s2, s3 float64) {
	n := len(row)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for j, wv := range row {
		s0 += float64(wv * x0[j])
		s1 += float64(wv * x1[j])
		s2 += float64(wv * x2[j])
		s3 += float64(wv * x3[j])
	}
	return
}

// MulMat computes Out = X·Wᵀ for a row-major batch X of n rows (each of
// length C) into Out (n rows of length R), both flat. Each output element
// is MulVec's sum term for term — a rounded product added to the running
// sum, j ascending — so the result is bit-identical to n MulVec calls at
// any batch size and on either kernel (AVX2 panels where the CPU has them,
// see kernel_amd64.go; mulMatGo everywhere else); only the wall clock
// changes. Out may not alias X.
func (t *Tensor) MulMat(x []float64, n int, out []float64) {
	if len(x) != n*t.C || len(out) != n*t.R {
		panic(fmt.Sprintf("nn: MulMat shape mismatch: (%d,%d) batch %d over %d into %d", t.R, t.C, n, len(x), len(out)))
	}
	t.mulMat(x, n, out)
}

// mulMatGo is the portable MulMat: six-lane scalar blocks, a four-lane
// tail, MulVec for what is left.
func (t *Tensor) mulMatGo(x []float64, n int, out []float64) {
	C, R := t.C, t.R
	b := 0
	for ; b+mulMatLane <= n; b += mulMatLane {
		x0, x1, x2 := x[(b+0)*C:(b+1)*C], x[(b+1)*C:(b+2)*C], x[(b+2)*C:(b+3)*C]
		x3, x4, x5 := x[(b+3)*C:(b+4)*C], x[(b+4)*C:(b+5)*C], x[(b+5)*C:(b+6)*C]
		o0, o1, o2 := out[(b+0)*R:(b+1)*R], out[(b+1)*R:(b+2)*R], out[(b+2)*R:(b+3)*R]
		o3, o4, o5 := out[(b+3)*R:(b+4)*R], out[(b+4)*R:(b+5)*R], out[(b+5)*R:(b+6)*R]
		for i := 0; i < R; i++ {
			o0[i], o1[i], o2[i], o3[i], o4[i], o5[i] = mul6(t.W[i*C:i*C+C], x0, x1, x2, x3, x4, x5)
		}
	}
	// Tail: a 4-lane pass keeps up to five leftover rows off the serial
	// path (batch sizes are rarely multiples of six), then MulVec mops up.
	if b+4 <= n {
		x0, x1 := x[(b+0)*C:(b+1)*C], x[(b+1)*C:(b+2)*C]
		x2, x3 := x[(b+2)*C:(b+3)*C], x[(b+3)*C:(b+4)*C]
		o0, o1 := out[(b+0)*R:(b+1)*R], out[(b+1)*R:(b+2)*R]
		o2, o3 := out[(b+2)*R:(b+3)*R], out[(b+3)*R:(b+4)*R]
		for i := 0; i < R; i++ {
			o0[i], o1[i], o2[i], o3[i] = mul4(t.W[i*C:i*C+C], x0, x1, x2, x3)
		}
		b += 4
	}
	for ; b < n; b++ {
		t.MulVec(x[b*C:b*C+C], out[b*R:b*R+R])
	}
}

// MulVecT computes out += Wᵀ·g (C×R times R) accumulated into out (length C).
func (t *Tensor) MulVecT(g, out []float64) {
	if len(g) != t.R || len(out) != t.C {
		panic(fmt.Sprintf("nn: MulVecT shape mismatch: (%d,%d)ᵀ·%d into %d", t.R, t.C, len(g), len(out)))
	}
	for i := 0; i < t.R; i++ {
		gi := g[i]
		if gi == 0 {
			continue
		}
		row := t.W[i*t.C : (i+1)*t.C]
		for j, v := range row {
			out[j] += v * gi
		}
	}
}

// AddOuterGrad accumulates G += g·xᵀ, the weight gradient of out = W·x.
func (t *Tensor) AddOuterGrad(g, x []float64) { addOuter(t.G[:t.R*t.C], t.C, g, x) }

// addOuter accumulates G += g·xᵀ into a row-major G of row length c,
// skipping the rows whose g is zero.
func addOuter(G []float64, c int, g, x []float64) {
	for i, gi := range g {
		if gi == 0 {
			continue
		}
		grow := G[i*c : (i+1)*c]
		for j, xv := range x {
			grow[j] += gi * xv
		}
	}
}

// AddVecGrad accumulates G += g for bias tensors (C==1 semantics not
// required; adds element-wise over the flat buffer).
func (t *Tensor) AddVecGrad(g []float64) {
	for i, v := range g {
		t.G[i] += v
	}
}

// GradNorm returns the L2 norm of the gradient buffer.
func (t *Tensor) GradNorm() float64 {
	var s float64
	for _, g := range t.G {
		s += g * g
	}
	return math.Sqrt(s)
}

// sigmoid is the logistic function.
func sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// negZero is the bias tanhs takes to add nothing.
var negZero = math.Copysign(0, -1)

// tanhsGo sets v[i] = math.Tanh(v[i] + bias): tanhs without the AVX2
// kernel, and its tail.
func tanhsGo(v []float64, bias float64) {
	for i, x := range v {
		v[i] = math.Tanh(x + bias)
	}
}

// sigmoidsGo sets v[i] = sigmoid(v[i]): sigmoids without the AVX2 kernel,
// and what the kernel leaves.
func sigmoidsGo(v []float64) {
	for i, x := range v {
		v[i] = sigmoid(x)
	}
}

// Softmax writes the softmax of logits into out (stable form).
func Softmax(logits, out []float64) {
	max := math.Inf(-1)
	for _, v := range logits {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - max)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

// ClipGradients rescales all gradients so their joint L2 norm does not
// exceed maxNorm. Returns the pre-clip norm.
func ClipGradients(maxNorm float64, ts ...*Tensor) float64 {
	var total float64
	for _, t := range ts {
		for _, g := range t.G {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, t := range ts {
			for i := range t.G {
				t.G[i] *= scale
			}
		}
	}
	return norm
}

// Adam implements the Adam optimiser over registered tensors.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t      int
	params []*Tensor
	m, v   [][]float64

	// train is the working memory of the autoencoder steps this
	// optimiser takes (TrainBatch): kept from one step to the next, and
	// dropped with the optimiser at the end of the training run.
	train *trainScratch
}

// NewAdam creates an optimiser with the conventional defaults and the given
// learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Register adds tensors to be updated by Step.
func (a *Adam) Register(ts ...*Tensor) {
	for _, t := range ts {
		a.params = append(a.params, t)
		a.m = append(a.m, make([]float64, len(t.W)))
		a.v = append(a.v, make([]float64, len(t.W)))
	}
}

// Step applies one Adam update from the accumulated gradients and zeroes
// them.
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for k, p := range a.params {
		m, v := a.m[k], a.v[k]
		for i, g := range p.G {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			p.W[i] -= a.LR * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + a.Eps)
			p.G[i] = 0
		}
	}
}
