package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// GRUClassifier is a single-layer GRU followed by a softmax head, the
// paper's Stage-(a) model: it reads one packet feature vector per step and
// predicts the reference TCP state label for that step (Table 6: one layer,
// input 32, hidden/gate size 32).
//
// Gate convention (matching Cho et al. [6], the paper's reference):
//
//	z_t = σ(Wz·x_t + Uz·h_{t-1} + bz)        update gate
//	r_t = σ(Wr·x_t + Ur·h_{t-1} + br)        reset gate
//	h̃_t = tanh(Wh·x_t + Uh·(r_t ⊙ h_{t-1}) + bh)
//	h_t = (1-z_t) ⊙ h_{t-1} + z_t ⊙ h̃_t
//
// The per-step z_t and r_t vectors are what Stage (b) concatenates into
// context profiles.
type GRUClassifier struct {
	In, Hidden, Classes int

	Wz, Uz, Bz *Tensor
	Wr, Ur, Br *Tensor
	Wh, Uh, Bh *Tensor
	Wo, Bo     *Tensor

	// gateBufs pools ForwardGatesBatchPooled workspaces (*gateBuf); the
	// zero value is ready, keeping struct-literal construction sites
	// working unchanged.
	gateBufs sync.Pool
}

// gateBuf is one pooled ForwardGatesBatchPooled workspace: the flat
// backing every per-call buffer is carved from, the Z/R row headers handed
// to the caller, and the release func that returns the workspace, made once
// when the workspace is. A call that finds one in the pool allocates
// nothing.
type gateBuf struct {
	backing []float64
	z, r    [][]float64
	release func()
}

// NewGRUClassifier builds a Xavier-initialised model.
func NewGRUClassifier(in, hidden, classes int, rng *rand.Rand) *GRUClassifier {
	return &GRUClassifier{
		In: in, Hidden: hidden, Classes: classes,
		Wz: NewXavier(hidden, in, rng), Uz: NewXavier(hidden, hidden, rng), Bz: NewTensor(hidden, 1),
		Wr: NewXavier(hidden, in, rng), Ur: NewXavier(hidden, hidden, rng), Br: NewTensor(hidden, 1),
		Wh: NewXavier(hidden, in, rng), Uh: NewXavier(hidden, hidden, rng), Bh: NewTensor(hidden, 1),
		Wo: NewXavier(classes, hidden, rng), Bo: NewTensor(classes, 1),
	}
}

// Params returns every parameter tensor (for optimiser registration,
// clipping and persistence).
func (m *GRUClassifier) Params() []*Tensor {
	return []*Tensor{m.Wz, m.Uz, m.Bz, m.Wr, m.Ur, m.Br, m.Wh, m.Uh, m.Bh, m.Wo, m.Bo}
}

// GRUStates captures everything the forward pass produced for a sequence of
// T steps. Z and R are the gate activations CLAP harvests as inter-packet
// context.
type GRUStates struct {
	X     [][]float64 // inputs, T×In (referenced, not copied)
	H     [][]float64 // hidden states, T×Hidden
	Z, R  [][]float64 // update / reset gate activations, T×Hidden
	Cand  [][]float64 // candidate states h̃, T×Hidden
	Probs [][]float64 // softmax outputs, T×Classes
}

// gruScratch holds one recurrence step's temporaries. Always per-call, so
// concurrent forward passes on one model never share state.
type gruScratch struct {
	az, ar, ah, tmp, rh []float64
}

func newGRUScratch(hidden int) *gruScratch {
	return &gruScratch{
		az: make([]float64, hidden), ar: make([]float64, hidden), ah: make([]float64, hidden),
		tmp: make([]float64, hidden), rh: make([]float64, hidden),
	}
}

// step computes one GRU recurrence step into z, r, c and h — the single
// source of the gate arithmetic, shared by Forward and ForwardGates so
// their results are structurally bit-identical.
func (m *GRUClassifier) step(sc *gruScratch, x, hPrev, z, r, c, h []float64) {
	m.Wz.MulVec(x, sc.az)
	m.Uz.MulVec(hPrev, sc.tmp)
	for i := range z {
		z[i] = sigmoid(sc.az[i] + sc.tmp[i] + m.Bz.W[i])
	}
	m.Wr.MulVec(x, sc.ar)
	m.Ur.MulVec(hPrev, sc.tmp)
	for i := range r {
		r[i] = sigmoid(sc.ar[i] + sc.tmp[i] + m.Br.W[i])
	}
	for i := range sc.rh {
		sc.rh[i] = r[i] * hPrev[i]
	}
	m.Wh.MulVec(x, sc.ah)
	m.Uh.MulVec(sc.rh, sc.tmp)
	for i := range c {
		c[i] = math.Tanh(sc.ah[i] + sc.tmp[i] + m.Bh.W[i])
	}
	for i := range h {
		h[i] = (1-z[i])*hPrev[i] + z[i]*c[i]
	}
}

// Forward runs the GRU over a sequence, returning all intermediate states.
func (m *GRUClassifier) Forward(seq [][]float64) *GRUStates {
	T := len(seq)
	st := &GRUStates{
		X: seq,
		H: make([][]float64, T), Z: make([][]float64, T), R: make([][]float64, T),
		Cand: make([][]float64, T), Probs: make([][]float64, T),
	}
	hPrev := make([]float64, m.Hidden)
	sc := newGRUScratch(m.Hidden)
	logits := make([]float64, m.Classes)
	for t := 0; t < T; t++ {
		z := make([]float64, m.Hidden)
		r := make([]float64, m.Hidden)
		c := make([]float64, m.Hidden)
		h := make([]float64, m.Hidden)
		m.step(sc, seq[t], hPrev, z, r, c, h)

		probs := make([]float64, m.Classes)
		m.Wo.MulVec(h, logits)
		for i := range logits {
			logits[i] += m.Bo.W[i]
		}
		Softmax(logits, probs)

		st.Z[t], st.R[t], st.Cand[t], st.H[t], st.Probs[t] = z, r, c, h, probs
		hPrev = h
	}
	return st
}

// ForwardGates runs the recurrence computing only the per-step update and
// reset gate activations — the gates-only variant of Forward. Stage (b)
// harvests z_t and r_t but never reads the softmax head, so the output
// multiply and per-step probability/candidate/state retention are skipped.
// Both paths run the same step method, so the returned Z and R are
// bit-identical to Forward(seq).Z/.R. All scratch state is per-call;
// concurrent ForwardGates calls on one model are safe. It is the serial
// oracle of ForwardGatesBatchPooled, which scoring and training run; no
// production, evaluation or training code calls it.
func (m *GRUClassifier) ForwardGates(seq [][]float64) (Z, R [][]float64) {
	T := len(seq)
	Z = make([][]float64, T)
	R = make([][]float64, T)
	hPrev := make([]float64, m.Hidden)
	h := make([]float64, m.Hidden)
	c := make([]float64, m.Hidden)
	sc := newGRUScratch(m.Hidden)
	for t := 0; t < T; t++ {
		z := make([]float64, m.Hidden)
		r := make([]float64, m.Hidden)
		m.step(sc, seq[t], hPrev, z, r, c, h)
		Z[t], R[t] = z, r
		hPrev, h = h, hPrev
	}
	return Z, R
}

// ForwardGatesBatchPooled is the batched-inference variant of
// ForwardGates: the input projections Wz·x_t, Wr·x_t and Wh·x_t for the
// whole packet sequence are hoisted out of the recurrence into three
// matrix-matrix passes (Tensor.MulMat), leaving only the hidden-state
// multiplies sequential — the part the recurrence genuinely orders. MulMat
// preserves MulVec's per-element accumulation order and the gate
// arithmetic matches step() exactly, so Z and R are bit-identical to
// ForwardGates(seq) at any sequence length.
//
// The three hidden-state products Uz·h, Ur·h and Uh·(r⊙h) run on the AVX2
// panel kernel where the build has it and Hidden is a whole number of
// panels (mulHidden); MulVec, their oracle, runs them everywhere else.
// The gates' sigmoids and the candidate's tanh run on the AVX2 activation
// kernels over each step's complete pre-activation sums (sigmoids, tanhs),
// which compute the scalar sigmoid's and math.Tanh's bits; step keeps the
// scalar functions as their oracle.
//
// A step may be wider than In — a full feature vector, say: its first In
// values are the input, so callers need no narrowing view of their rows.
//
// Z and R are carved from a pooled workspace: call release (always
// non-nil) once they have been consumed, and do not read them afterwards.
// A call that reuses a workspace allocates nothing. Concurrent calls on
// one model are safe.
func (m *GRUClassifier) ForwardGatesBatchPooled(seq [][]float64) (Z, R [][]float64, release func()) {
	T := len(seq)
	H := m.Hidden
	panels := recurOnPanels(H)
	need := T*(m.In+5*H) + 5*H
	if panels {
		need += 3 * H * H
	}
	gb, _ := m.gateBufs.Get().(*gateBuf)
	if gb == nil {
		gb = &gateBuf{}
		gb.release = func() { m.gateBufs.Put(gb) }
	}
	if cap(gb.backing) < need {
		gb.backing = make([]float64, need)
	}
	if cap(gb.z) < T {
		gb.z, gb.r = make([][]float64, T), make([][]float64, T)
	}
	Z, R = gb.z[:T], gb.r[:T]
	if T == 0 {
		return Z, R, gb.release
	}
	// The backing holds every per-call buffer: the flattened inputs, the
	// three hoisted projections, the gate outputs, the recurrence scratch
	// and, on the panel kernel, the transposed U matrices. A pooled backing
	// may hold stale values — every region is fully written or explicitly
	// cleared before its first read.
	x, rest := gb.backing[:T*m.In], gb.backing[T*m.In:need]
	az, rest := rest[:T*H], rest[T*H:]
	ar, rest := rest[:T*H], rest[T*H:]
	ah, rest := rest[:T*H], rest[T*H:]
	zbuf, rest := rest[:T*H], rest[T*H:]
	rbuf, rest := rest[:T*H], rest[T*H:]
	hPrev, rest := rest[:H], rest[H:]
	h, rest := rest[:H], rest[H:]
	c, rest := rest[:H], rest[H:]
	tmp, rest := rest[:H], rest[H:]
	rh, rest := rest[:H], rest[H:]
	var uzT, urT, uhT []float64
	if panels {
		uzT, urT, uhT = rest[:H*H], rest[H*H:2*H*H], rest[2*H*H:]
		transpose(m.Uz, uzT)
		transpose(m.Ur, urT)
		transpose(m.Uh, uhT)
	}
	// hPrev is the only buffer read before it is written (h_0 = 0); a
	// pooled backing may carry a previous call's values.
	clear(hPrev)
	for t, v := range seq {
		if len(v) < m.In {
			panic(fmt.Sprintf("nn: ForwardGatesBatchPooled step width %d, want at least %d", len(v), m.In))
		}
		copy(x[t*m.In:(t+1)*m.In], v[:m.In])
	}
	m.Wz.MulMat(x, T, az)
	m.Wr.MulMat(x, T, ar)
	m.Wh.MulMat(x, T, ah)
	for t := 0; t < T; t++ {
		z := zbuf[t*H : (t+1)*H]
		r := rbuf[t*H : (t+1)*H]
		mulHidden(m.Uz, uzT, hPrev, tmp)
		for i := range z {
			z[i] = az[t*H+i] + tmp[i] + m.Bz.W[i]
		}
		sigmoids(z)
		mulHidden(m.Ur, urT, hPrev, tmp)
		for i := range r {
			r[i] = ar[t*H+i] + tmp[i] + m.Br.W[i]
		}
		sigmoids(r)
		for i := range rh {
			rh[i] = r[i] * hPrev[i]
		}
		mulHidden(m.Uh, uhT, rh, tmp)
		for i := range c {
			c[i] = ah[t*H+i] + tmp[i] + m.Bh.W[i]
		}
		// The sums are complete before the kernel sees them, so it adds
		// no bias (−0): adding a +0 bias would turn a −0 sum into +0 and
		// flip tanh(−0).
		tanhs(c, negZero)
		for i := range h {
			h[i] = (1-z[i])*hPrev[i] + z[i]*c[i]
		}
		Z[t], R[t] = z, r
		hPrev, h = h, hPrev
	}
	return Z, R, gb.release
}

// transpose writes uᵀ into uT: uT[j*R+i] = u[i][j].
func transpose(u *Tensor, uT []float64) {
	for i := 0; i < u.R; i++ {
		for j, v := range u.W[i*u.C : (i+1)*u.C] {
			uT[j*u.R+i] = v
		}
	}
}

// mulHidden computes out = U·h for a square recurrence matrix U: on the
// panel kernel from U's transpose uT when recurOnPanels(U.R) (mulRecur),
// through MulVec otherwise. Either way each element is MulVec's sum term
// for term, so the gates are the same bits on both.
func mulHidden(u *Tensor, uT, h, out []float64) {
	if uT == nil {
		u.MulVec(h, out)
		return
	}
	mulRecur(uT, h, out)
}

// Loss computes the mean cross-entropy of a forward pass against labels.
func (st *GRUStates) Loss(labels []int) float64 {
	var sum float64
	for t, p := range st.Probs {
		sum += -math.Log(math.Max(p[labels[t]], 1e-12))
	}
	return sum / float64(len(labels))
}

// Accuracy counts argmax hits against labels.
func (st *GRUStates) Accuracy(labels []int) float64 {
	hit := 0
	for t, p := range st.Probs {
		best := 0
		for i, v := range p {
			if v > p[best] {
				best = i
			}
		}
		if best == labels[t] {
			hit++
		}
	}
	return float64(hit) / float64(len(labels))
}

// Backward runs truncated-free full BPTT for one sequence, accumulating
// gradients into the parameter tensors. Returns the mean cross-entropy
// loss. Gradients are scaled by 1/T so sequence length does not change the
// effective learning rate.
func (m *GRUClassifier) Backward(st *GRUStates, labels []int) float64 {
	T := len(st.H)
	invT := 1.0 / float64(T)
	dhNext := make([]float64, m.Hidden)

	dlogits := make([]float64, m.Classes)
	dh := make([]float64, m.Hidden)
	dc := make([]float64, m.Hidden)
	dz := make([]float64, m.Hidden)
	dr := make([]float64, m.Hidden)
	dac := make([]float64, m.Hidden)
	daz := make([]float64, m.Hidden)
	dar := make([]float64, m.Hidden)
	drh := make([]float64, m.Hidden)
	rh := make([]float64, m.Hidden)

	var loss float64
	for t := T - 1; t >= 0; t-- {
		hPrev := make([]float64, m.Hidden)
		if t > 0 {
			copy(hPrev, st.H[t-1])
		}
		probs := st.Probs[t]
		loss += -math.Log(math.Max(probs[labels[t]], 1e-12))

		// Softmax + cross-entropy gradient.
		for i := range dlogits {
			dlogits[i] = probs[i] * invT
		}
		dlogits[labels[t]] -= invT

		m.Wo.AddOuterGrad(dlogits, st.H[t])
		m.Bo.AddVecGrad(dlogits)
		copy(dh, dhNext)
		m.Wo.MulVecT(dlogits, dh)

		z, r, c := st.Z[t], st.R[t], st.Cand[t]
		for i := range dhNext {
			dhNext[i] = 0
		}
		for i := 0; i < m.Hidden; i++ {
			dc[i] = dh[i] * z[i]
			dz[i] = dh[i] * (c[i] - hPrev[i])
			dhNext[i] += dh[i] * (1 - z[i])
			dac[i] = dc[i] * (1 - c[i]*c[i])
			daz[i] = dz[i] * z[i] * (1 - z[i])
			rh[i] = r[i] * hPrev[i]
			drh[i] = 0
		}
		m.Wh.AddOuterGrad(dac, st.X[t])
		m.Uh.AddOuterGrad(dac, rh)
		m.Bh.AddVecGrad(dac)
		m.Uh.MulVecT(dac, drh)
		for i := 0; i < m.Hidden; i++ {
			dr[i] = drh[i] * hPrev[i]
			dhNext[i] += drh[i] * r[i]
			dar[i] = dr[i] * r[i] * (1 - r[i])
		}
		m.Wz.AddOuterGrad(daz, st.X[t])
		m.Uz.AddOuterGrad(daz, hPrev)
		m.Bz.AddVecGrad(daz)
		m.Uz.MulVecT(daz, dhNext)

		m.Wr.AddOuterGrad(dar, st.X[t])
		m.Ur.AddOuterGrad(dar, hPrev)
		m.Br.AddVecGrad(dar)
		m.Ur.MulVecT(dar, dhNext)
	}
	return loss / float64(T)
}

// TrainSequence runs forward+backward, clips, and steps the optimiser.
// Returns the sequence loss.
func (m *GRUClassifier) TrainSequence(seq [][]float64, labels []int, opt *Adam, clip float64) float64 {
	st := m.Forward(seq)
	loss := m.Backward(st, labels)
	if clip > 0 {
		ClipGradients(clip, m.Params()...)
	}
	opt.Step()
	return loss
}

// Predict returns the argmax class per step.
func (m *GRUClassifier) Predict(seq [][]float64) []int {
	st := m.Forward(seq)
	out := make([]int, len(st.Probs))
	for t, p := range st.Probs {
		best := 0
		for i, v := range p {
			if v > p[best] {
				best = i
			}
		}
		out[t] = best
	}
	return out
}
