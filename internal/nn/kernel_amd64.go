//go:build !purego

package nn

import (
	"fmt"
	"math"
	"sync"
)

// The AVX2 kernels: the panels under MulMat, and the activations on them.
//
// Panels. Lanes carry batch rows, not output neurons: the batch is laid
// out feature-major (xT[j*ld+b]) in panels of eight rows, and every lane
// of a panel runs MulVec's own sum — a rounded VMULPD product added by
// VADDPD, j ascending, never an FMA — so the bits are MulVec's at any
// batch size. The weights are read in place, one broadcast per element:
// there is no packed or transposed copy to go stale when training mutates
// Tensor.W.
//
// Activations. tanhAVX2 and sigmoidAVX2 compute math.Tanh and sigmoid
// four lanes at a time with math.tanh's own arithmetic around archExp's
// FMA path (math/exp_amd64.s), inlined op for op, so every lane is the
// scalar function's bits. FMA is allowed here, unlike under MulMat,
// because it is what the reference itself runs: math.Exp fuses on every
// CPU with AVX and FMA. They run where the CPU has AVX2 and FMA; without
// FMA, math.Exp takes its unfused path, so the activations stay on the Go
// loops (tanhsGo, sigmoidsGo).

// hasAVX2 reports whether the CPU and the OS support AVX2 (kernel_amd64.s).
func hasAVX2() bool

// hasFMA reports whether the CPU has FMA3; ask only after hasAVX2
// (kernel_amd64.s).
func hasFMA() bool

// mulPanelAVX2 computes one 8-lane panel: outT[i*ld+l] = Σ_j w[i*c+j] ·
// xT[j*ld+l] for l in [0,8), i in [0,r). c ≥ 1 (kernel_amd64.s).
//
//go:noescape
func mulPanelAVX2(w *float64, r, c int, xT *float64, ld int, outT *float64)

// tanhAVX2 sets x[i] = math.Tanh(x[i] + bias) for i in [0,n), n a
// multiple of 4 (kernel_amd64.s).
//
//go:noescape
func tanhAVX2(x *float64, n int, bias float64)

// sigmoidAVX2 sets x[i] = sigmoid(x[i]) for i in [0,n), n a multiple of
// 4, stopping at the first group of four holding a NaN or an |x| > 708;
// it returns where it stopped (kernel_amd64.s).
//
//go:noescape
func sigmoidAVX2(x *float64, n int) int

var (
	useAVX2    = hasAVX2()
	useActAVX2 = useAVX2 && hasFMA()
)

// tanhs sets v[i] = math.Tanh(v[i] + bias), bit for bit: on tanhAVX2 four
// lanes at a time where the CPU has AVX2 and FMA, with math.Tanh for the
// len(v)%4 left over and everywhere else. A bias of −0 adds nothing
// (x + −0 is x for every x, −0 included).
func tanhs(v []float64, bias float64) {
	n := 0
	if useActAVX2 {
		n = len(v) &^ 3
		if n > 0 {
			tanhAVX2(&v[0], n, bias)
		}
	}
	tanhsGo(v[n:], bias)
}

// sigmoids sets v[i] = sigmoid(v[i]), bit for bit: on sigmoidAVX2 where
// the CPU has AVX2 and FMA, with the scalar sigmoid for the groups of four
// the kernel leaves (a NaN or an |x| > 708), the len(v)%4 left over, and
// everywhere else.
func sigmoids(v []float64) {
	if useActAVX2 {
		for len(v) >= 4 {
			v = v[sigmoidAVX2(&v[0], len(v)&^3):]
			if len(v) >= 4 { // the kernel stopped at this group
				sigmoidsGo(v[:4])
				v = v[4:]
			}
		}
	}
	sigmoidsGo(v)
}

const (
	// panelLanes is the panel width: two ymm registers of batch rows.
	panelLanes = 8
	// panelMinBatch is the smallest batch the panels win on. A panel costs
	// the same for one row as for eight, and measures about one MulVec
	// pass; a lone row stays on MulVec, two rows or more ride a panel.
	panelMinBatch = 2
)

// Kernel names the MulMat kernel this process runs: "avx2" or "go".
func Kernel() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// panelPad rounds a batch up to whole panels.
func panelPad(n int) int { return (n + panelLanes - 1) &^ (panelLanes - 1) }

// panelScratch pools the feature-major copies MulMat makes of its
// row-major operands; buffers grow to the high-water batch and stay.
var panelScratch sync.Pool

func getPanelScratch(size int) *[]float64 {
	if v := panelScratch.Get(); v != nil {
		if b := v.(*[]float64); cap(*b) >= size {
			*b = (*b)[:size]
			return b
		}
	}
	b := make([]float64, size)
	return &b
}

func (t *Tensor) mulMat(x []float64, n int, out []float64) {
	if !useAVX2 || n < panelMinBatch || t.R < 1 || t.C < 1 {
		t.mulMatGo(x, n, out)
		return
	}
	t.mulMatAVX2(x, n, out)
}

// mulMatAVX2 is MulMat on the panel kernel: transpose the batch in, run
// the panels, transpose the result out. The batch is padded to whole
// panels with zero lanes whose results are dropped, so the kernel has no
// scalar tail.
func (t *Tensor) mulMatAVX2(x []float64, n int, out []float64) {
	C, R := t.C, t.R
	ld := panelPad(n)
	buf := getPanelScratch((C + R) * ld)
	xT, outT := (*buf)[:C*ld], (*buf)[C*ld:]
	for j := 0; j < C; j++ {
		col := xT[j*ld : j*ld+ld]
		for b := 0; b < n; b++ {
			col[b] = x[b*C+j]
		}
		clear(col[n:])
	}
	mulPanels(t, xT, ld, outT)
	for i := 0; i < R; i++ {
		col := outT[i*ld : i*ld+ld]
		for b := 0; b < n; b++ {
			out[b*R+i] = col[b]
		}
	}
	panelScratch.Put(buf)
}

// mulPanels runs every panel of a feature-major batch of ld rows (a
// positive multiple of panelLanes): outT[i*ld+b] = (W·x_b)[i]. The
// assembly trusts its pointers, so the shapes are checked here, as strictly
// as MulMat checks its own.
func mulPanels(t *Tensor, xT []float64, ld int, outT []float64) {
	if t.R < 1 || t.C < 1 || len(t.W) < t.R*t.C || ld < panelLanes || ld%panelLanes != 0 ||
		len(xT) != t.C*ld || len(outT) != t.R*ld {
		panic(fmt.Sprintf("nn: mulPanels (%d,%d) weights %d, ld %d, in %d, out %d", t.R, t.C, len(t.W), ld, len(xT), len(outT)))
	}
	for p := 0; p < ld; p += panelLanes {
		mulPanelAVX2(&t.W[0], t.R, t.C, &xT[p], ld, &outT[p])
	}
}

// recurOnPanels reports whether the GRU recurrence of a hidden size runs on
// the panel kernel: with AVX2, and when the hidden size is a whole number
// of panels.
func recurOnPanels(hidden int) bool { return useAVX2 && hidden > 0 && hidden%panelLanes == 0 }

// mulRecur computes out = U·h for a square U given as its transpose uT
// (uT[j*H+i] = U[i][j]) on the panel kernel, with the roles of MulMat
// swapped: h is the single weight row (r = 1) and the lanes carry output
// neurons, eight per panel. Lane i sums h[j]·U[i][j] for j ascending from
// +0, a rounded VMULPD product added by VADDPD — MulVec's sum term for
// term. The product's operands are in the other order (h·U, not U·h),
// which can only change which payload a NaN times a NaN keeps.
func mulRecur(uT, h, out []float64) {
	H := len(h)
	if !recurOnPanels(H) || len(uT) != H*H || len(out) != H {
		panic(fmt.Sprintf("nn: mulRecur hidden %d, transpose %d, out %d", H, len(uT), len(out)))
	}
	for p := 0; p < H; p += panelLanes {
		mulPanelAVX2(&h[0], 1, H, &uT[p], H, &out[p])
	}
}

// errorsPanels is ErrorsBatch on the panel kernel, with the activations
// kept feature-major (act[i*ld+b]) from the input copy to the L1 sum so
// that no layer transposes. It reports false, having done nothing, when the
// batch belongs on the portable path. The bias and L1 expressions are
// ErrorsBatch's own and the tanh is math.Tanh's bits (tanhs), applied to
// each window in the same element order, so the errors are bit-identical
// to Error at any batch size. Bias and tanh run over whole panels, so the
// activation kernel has no scalar tail: pad lanes start as zeros and then
// carry whatever the layers make of them (tanh(bias) after the first);
// lanes never mix, and pad lanes are never read back. out must arrive
// zeroed: the L1 sums accumulate in it.
func (ae *Autoencoder) errorsPanels(xs [][]float64, out []float64) bool {
	n := len(xs)
	if !useAVX2 || n < panelMinBatch {
		return false
	}
	ld := panelPad(n)
	s := ae.getBatchScratch(ld)
	cur, nxt := s.a, s.b
	width := ae.Sizes[0]
	for b, x := range xs {
		for j, v := range x {
			cur[j*ld+b] = v
		}
	}
	for j := 0; j < width; j++ {
		clear(cur[j*ld+n : j*ld+ld])
	}
	for _, l := range ae.Layers {
		r := l.W.R
		mulPanels(l.W, cur[:width*ld], ld, nxt[:r*ld])
		for i, bv := range l.B.W[:r] {
			o := nxt[i*ld : i*ld+ld]
			if l.Tanh {
				tanhs(o, bv)
			} else {
				for b := range o {
					o[b] += bv
				}
			}
		}
		cur, nxt = nxt, cur
		width = r
	}
	for i := 0; i < width; i++ {
		for b, v := range cur[i*ld : i*ld+n] {
			out[b] += math.Abs(v - xs[b][i])
		}
	}
	for b := range out {
		out[b] /= float64(width)
	}
	ae.batches.Put(s)
	return true
}

// trainPanelScratch holds trainPanels' buffers for batches of up to lanes
// samples (a multiple of panelLanes). Feature-major buffers have a row
// per feature and a lane per sample; sample-major ones the other way
// round.
type trainPanelScratch struct {
	lanes int
	// acts[i] is layer i's input (the output at i = len(Layers)),
	// feature-major; rows[i] is layer i's input sample-major, each row
	// panelPad(Sizes[i]) long.
	acts, rows [][]float64
	// delta holds Δ, the loss gradient at a layer's output, feature-major;
	// back receives the Δ that layer hands down.
	delta, back []float64
	// deltaRows and backRows are the two sample-major, for a layer whose
	// input is whole panels.
	deltaRows, backRows []float64
	// wT is a layer's Wᵀ, for a layer whose input is not.
	wT []float64
	// grad receives one layer's weight gradient, rows panelPad(C) long.
	grad []float64
	// loss holds the samples' L1 sums.
	loss []float64
}

// panelBuffers returns s's panel buffers sized for ld lanes, allocating
// them on the first call and for a batch wider than any before.
func (ae *Autoencoder) panelBuffers(s *trainScratch, ld int) *trainPanelScratch {
	p := &s.panels
	if p.lanes >= ld {
		return p
	}
	*p = trainPanelScratch{lanes: ld}
	width, grad, wT := ae.maxWidth(), 0, 0
	for i, l := range ae.Layers {
		grad = max(grad, l.W.R*panelPad(l.W.C))
		if i > 0 && l.W.C%panelLanes != 0 {
			wT = max(wT, l.W.R*l.W.C)
		}
	}
	for i, w := range ae.Sizes {
		p.acts = append(p.acts, make([]float64, w*ld))
		if i < len(ae.Layers) {
			p.rows = append(p.rows, make([]float64, ld*panelPad(w)))
		}
	}
	p.delta, p.back = make([]float64, width*ld), make([]float64, width*ld)
	p.deltaRows, p.backRows = make([]float64, ld*width), make([]float64, ld*width)
	p.wT, p.grad, p.loss = make([]float64, wT), make([]float64, grad), make([]float64, ld)
	return p
}

// trainPanels is one part of TrainBatch on the panel kernel: it adds the
// part's gradient sums into the model's G and returns the sum of its
// samples' losses. It reports false, having done nothing, for a lone
// sample or without AVX2. Each layer runs three panel products:
//
//   - forward, the activations feature-major with the bias and tanh of
//     errorsPanels;
//   - the weight gradient G = Δᵀ·X, with Δ's feature-major rows as the
//     weights (pad lanes zero, so the sum runs over whole panels) and the
//     layer's sample-major input as the lanes;
//   - the Δ handed down, Δ·W, with the lanes over the layer's inputs
//     (read from W in place, as mulRecur reads Uᵀ) when they are whole
//     panels, and over the samples with Wᵀ as the weights otherwise.
//
// Every sum is MulVec's — a rounded product, then the add, ascending from
// +0 — so each element is the sum trainSamples makes of the same terms,
// plus round(0·x) = ±0 for each term that backward's addOuter and MulVecT
// skip (Δ zero) and for each pad lane; added to a sum that started at +0,
// which is never −0, those change no bit for finite x. The bias sums and
// the tanh derivative are backward's expressions, in sample order.
func (ae *Autoencoder) trainPanels(xs [][]float64, s *trainScratch) (float64, bool) {
	m := len(xs)
	if !useAVX2 || m < panelMinBatch {
		return 0, false
	}
	ld := panelPad(m)
	p := ae.panelBuffers(s, ld)
	L := len(ae.Layers)

	// Forward.
	in := ae.Sizes[0]
	a0, pw := p.acts[0][:in*ld], panelPad(in)
	for b, x := range xs {
		for j, v := range x {
			a0[j*ld+b] = v
		}
		copy(p.rows[0][b*pw:], x)
	}
	for j := 0; j < in; j++ {
		clear(a0[j*ld+m : j*ld+ld])
	}
	for i, l := range ae.Layers {
		r, c := l.W.R, l.W.C
		out := p.acts[i+1][:r*ld]
		mulPanels(l.W, p.acts[i][:c*ld], ld, out)
		for k, bv := range l.B.W[:r] {
			o := out[k*ld : k*ld+ld]
			if l.Tanh {
				tanhs(o, bv)
			} else {
				for b := range o {
					o[b] += bv
				}
			}
		}
		if i+1 < L {
			rows, pw := p.rows[i+1], panelPad(r)
			for k := 0; k < r; k++ {
				for b, v := range out[k*ld : k*ld+m] {
					rows[b*pw+k] = v
				}
			}
		}
	}
	// The pad samples' rows are lanes of the weight gradient: zero them,
	// whatever a wider batch left there.
	for i, rows := range p.rows {
		pw := panelPad(ae.Sizes[i])
		clear(rows[m*pw : ld*pw])
	}

	// The L1 loss and its gradient, backward's expressions.
	n := ae.Sizes[L]
	out, d, loss := p.acts[L], p.delta[:n*ld], p.loss[:m]
	clear(loss)
	for i := 0; i < n; i++ {
		di := d[i*ld : i*ld+ld]
		for b, v := range out[i*ld : i*ld+m] {
			dv := v - xs[b][i]
			loss[b] += math.Abs(dv)
			switch {
			case dv > 0:
				di[b] = 1.0 / float64(n)
			case dv < 0:
				di[b] = -1.0 / float64(n)
			default:
				di[b] = 0
			}
		}
		clear(di[m:])
	}
	var sum float64
	for _, v := range loss {
		sum += v / float64(n)
	}

	// Backward.
	for i := L - 1; i >= 0; i-- {
		l := ae.Layers[i]
		r, c := l.W.R, l.W.C
		d := p.delta[:r*ld]
		if l.Tanh {
			a := p.acts[i+1]
			for k := 0; k < r; k++ {
				dk := d[k*ld : k*ld+m]
				for b, av := range a[k*ld : k*ld+m] {
					dk[b] *= 1 - av*av
				}
			}
		}
		pw := panelPad(c)
		g, x := p.grad[:r*pw], p.rows[i][:ld*pw]
		for q := 0; q < pw; q += panelLanes {
			mulPanelAVX2(&d[0], r, ld, &x[q], pw, &g[q])
		}
		for k := 0; k < r; k++ {
			gk := l.W.G[k*c : k*c+c]
			for j, v := range g[k*pw : k*pw+c] {
				gk[j] += v
			}
			var bs float64
			for _, v := range d[k*ld : k*ld+m] {
				bs += v
			}
			l.B.G[k] += bs
		}
		if i == 0 {
			break
		}
		next := p.back[:c*ld]
		if c%panelLanes == 0 {
			dr, nr := p.deltaRows[:m*r], p.backRows[:m*c]
			for k := 0; k < r; k++ {
				for b, v := range d[k*ld : k*ld+m] {
					dr[b*r+k] = v
				}
			}
			for q := 0; q < c; q += panelLanes {
				mulPanelAVX2(&dr[0], m, r, &l.W.W[q], c, &nr[q])
			}
			for j := 0; j < c; j++ {
				nj := next[j*ld : j*ld+m]
				for b := range nj {
					nj[b] = nr[b*c+j]
				}
			}
		} else {
			wT := p.wT[:c*r]
			for k := 0; k < r; k++ {
				for j, w := range l.W.W[k*c : k*c+c] {
					wT[j*r+k] = w
				}
			}
			for q := 0; q < ld; q += panelLanes {
				mulPanelAVX2(&wT[0], c, r, &d[q], ld, &next[q])
			}
		}
		for j := 0; j < c; j++ {
			clear(next[j*ld+m : j*ld+ld])
		}
		p.delta, p.back = p.back, p.delta
	}
	return sum, true
}
