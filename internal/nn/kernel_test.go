package nn

// The MulMat kernels against their oracle. MulVec is the definition: every
// element of a batched product must carry the Float64bits of the MulVec
// sum, on every kernel compiled into this binary (mulMatImpls: the
// dispatching MulMat and the portable mulMatGo everywhere, plus the AVX2
// panels called directly on amd64 — see kernel_amd64_test.go).
//
// Inputs never contain NaN: a sum of two NaNs keeps the payload of
// whichever operand the instruction reads first, which the Go compiler
// itself picks differently in MulVec and mul6. NaNs the arithmetic
// produces (Inf−Inf, 0·Inf) are the CPU's one default NaN on every path,
// and the awkward values below make plenty.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

type mulMatImpl struct {
	name string
	mul  func(t *Tensor, x []float64, n int, out []float64)
}

var mulMatImpls = []mulMatImpl{
	{"MulMat", (*Tensor).MulMat},
	{"go", (*Tensor).mulMatGo},
}

// awkward holds the values rounding and cancellation bugs show on: signed
// zeros, denormals, magnitudes whose products overflow to ±Inf (and then
// cancel to NaN) or underflow, and neighbours that cancel exactly or to
// one ulp.
var awkward = []float64{
	0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
	1e300, -1e300, 1e-300, -1e-300,
	1, -1, 1 + 0x1p-52, -(1 + 0x1p-52), 1 - 0x1p-53,
	0x1p53, -0x1p53, 0x1p53 + 2, 3, -3, 0.1, -0.1, 1.0 / 3,
}

// modelShapes are every (R, C) the detector multiplies by: the Table 6
// autoencoder chain and the GRU projections.
var modelShapes = [][2]int{
	{160, 345}, {80, 160}, {40, 80}, {80, 40}, {160, 80}, {345, 160}, {32, 32},
}

// oddShapes sit on the kernel's edges: fewer rows than the 4-row block,
// row counts with every remainder, a single column.
var oddShapes = [][2]int{
	{1, 1}, {1, 9}, {3, 5}, {5, 1}, {5, 3}, {6, 17}, {7, 2}, {9, 33},
}

var allShapes = append(append([][2]int{}, modelShapes...), oddShapes...)

// checkMulMat compares every implementation with n MulVec calls.
func checkMulMat(t testing.TB, r, c, n int, w, x []float64) {
	t.Helper()
	ts := &Tensor{R: r, C: c, W: w}
	want := make([]float64, n*r)
	for b := 0; b < n; b++ {
		ts.MulVec(x[b*c:(b+1)*c], want[b*r:(b+1)*r])
	}
	got := make([]float64, n*r)
	for _, impl := range mulMatImpls {
		for i := range got {
			got[i] = math.Float64frombits(0x7ff8dead0000beef) // a stale pooled value must not survive
		}
		impl.mul(ts, x, n, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s (%d,%d) batch %d: row %d element %d = %v (%#x), MulVec %v (%#x)",
					impl.name, r, c, n, i/r, i%r, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

func TestMulMatKernelsMatchMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	fills := []struct {
		name string
		next func() float64
	}{
		{"normal", rng.NormFloat64},
		{"awkward", func() float64 { return awkward[rng.Intn(len(awkward))] }},
		{"mixed", func() float64 {
			if rng.Intn(4) == 0 {
				return awkward[rng.Intn(len(awkward))]
			}
			return rng.NormFloat64()
		}},
	}
	fill := func(n int, next func() float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = next()
		}
		return v
	}
	for _, shape := range allShapes {
		r, c := shape[0], shape[1]
		for _, f := range fills {
			if r*c > 1024 && f.name != "mixed" {
				continue // the model shapes are the slow ones; one fill covers both kinds of value
			}
			t.Run(fmt.Sprintf("%dx%d/%s", r, c, f.name), func(t *testing.T) {
				w := fill(r*c, f.next)
				for n := 0; n <= 50; n++ {
					checkMulMat(t, r, c, n, w, fill(n*c, f.next))
				}
			})
		}
	}
}

// TestMulMatNoFusedMultiplyAdd pins the case a fused multiply-add gets
// wrong: −p + a·b with p = round(a·b) is exactly zero under MulVec's
// rounded product, and the product's rounding error if anything fuses —
// the assembly, or the compiler in the Go reference (the float64
// conversions in MulVec, mul6 and mul4 forbid it).
func TestMulMatNoFusedMultiplyAdd(t *testing.T) {
	a, b := 1+0x1p-30, 1+0x1p-29
	p := a * b
	if math.FMA(a, b, -p) == 0 {
		t.Fatal("a·b is exact; the test needs a product that rounds")
	}
	const r, c = 9, 2
	w := make([]float64, r*c)
	for i := 0; i < r; i++ {
		w[i*c], w[i*c+1] = p, a
	}
	ts := &Tensor{R: r, C: c, W: w}
	for n := 1; n <= 20; n++ {
		x := make([]float64, n*c)
		for k := 0; k < n; k++ {
			x[k*c], x[k*c+1] = -1, b
		}
		checkMulMat(t, r, c, n, w, x)
		out := make([]float64, n*r)
		for _, impl := range mulMatImpls {
			impl.mul(ts, x, n, out)
			for _, v := range out {
				if v != 0 {
					t.Fatalf("%s batch %d: −p + a·b = %v, want 0", impl.name, n, v)
				}
			}
		}
	}
}

// TestErrorsBatchTable6BitIdentity runs the paper's autoencoder chain at
// every batch size around the panel widths, growing and then shrinking so
// that pooled scratch is reused with stale lanes in it, and holds each
// error to the serial Error path (MulVec all the way down).
func TestErrorsBatchTable6BitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ae := NewAutoencoder([]int{345, 160, 80, 40, 80, 160, 345}, rng)
	xs := randVecs(33, 345, rng)
	for i := range xs[7] {
		xs[7][i] = 0 // an all-zero window: −0/+0 sums through every layer
	}
	want := make([]float64, len(xs))
	for i, x := range xs {
		want[i] = ae.Error(x)
	}
	check := func(n int) {
		for lo := 0; lo+n <= len(xs); lo += n {
			for k, e := range ae.ErrorsBatch(xs[lo : lo+n]) {
				if math.Float64bits(e) != math.Float64bits(want[lo+k]) {
					t.Fatalf("batch %d: window %d error %v, serial %v", n, lo+k, e, want[lo+k])
				}
			}
		}
	}
	for n := 1; n <= len(xs); n++ {
		check(n)
	}
	for n := len(xs); n >= 1; n-- {
		check(n)
	}

	// The Xavier model's tanh inputs rarely leave math.tanh's rational
	// branch (|v| < 0.625). Scaled weights and random biases drive them
	// through the exp branch and past saturation (|v| > 0.5·MAXLOG), so
	// the batched activations meet the serial math.Tanh on every branch.
	var branches [3]int
	for _, scale := range []float64{4, 30} {
		sae := NewAutoencoder(ae.Sizes, rng)
		for _, l := range sae.Layers {
			for i := range l.W.W {
				l.W.W[i] *= scale
			}
			for i := range l.B.W {
				l.B.W[i] = scale * rng.NormFloat64()
			}
		}
		for i, x := range xs {
			want[i] = sae.Error(x)
			acts := sae.forward(x)
			for k, l := range sae.Layers {
				if l.Tanh {
					pre := make([]float64, l.W.R)
					l.W.MulVec(acts[k], pre)
					for j, v := range pre {
						branches[tanhBranch(v+l.B.W[j])]++
					}
				}
			}
		}
		for n := 1; n <= len(xs); n++ {
			for lo := 0; lo+n <= len(xs); lo += n {
				for k, e := range sae.ErrorsBatch(xs[lo : lo+n]) {
					if math.Float64bits(e) != math.Float64bits(want[lo+k]) {
						t.Fatalf("weights ×%v, batch %d: window %d error %v, serial %v", scale, n, lo+k, e, want[lo+k])
					}
				}
			}
		}
	}
	for b, c := range branches {
		if c == 0 {
			t.Fatalf("no tanh input on branch %d (rational, exp, saturated): %v", b, branches)
		}
	}
}

// tanhBranch names math.tanh's branch for v: 0 rational (including ±0 and
// NaN), 1 exp, 2 saturated.
func tanhBranch(v float64) int {
	switch z := math.Abs(v); {
	case z > halfMaxLog:
		return 2
	case z >= 0.625:
		return 1
	}
	return 0
}

// TestRecurrenceKernelMatchesMulVec holds the GRU's hidden-state product
// (mulHidden: the panel kernel from Uᵀ where recurOnPanels says so, MulVec
// otherwise) to MulVec bit for bit, over signed zeros, denormals, ±Inf and
// ulp neighbours. Hidden sizes that are whole panels take the panels on an
// AVX2 build; 12 is not, and takes MulVec, like every size under purego.
func TestRecurrenceKernelMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	vals := append([]float64{math.Inf(1), math.Inf(-1)}, awkward...)
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.NormFloat64()
		}
		return vals[rng.Intn(len(vals))]
	}
	for _, H := range []int{8, 16, 32, 40, 12} {
		if want := Kernel() == "avx2" && H%8 == 0; recurOnPanels(H) != want {
			t.Fatalf("H=%d: recurOnPanels = %v on kernel %q", H, !want, Kernel())
		}
		u := NewTensor(H, H)
		h := make([]float64, H)
		want, got := make([]float64, H), make([]float64, H)
		for rep := 0; rep < 200; rep++ {
			for i := range u.W {
				u.W[i] = pick()
			}
			for i := range h {
				h[i] = pick()
			}
			var uT []float64
			if recurOnPanels(H) {
				uT = make([]float64, H*H)
				transpose(u, uT)
			}
			u.MulVec(h, want)
			for i := range got {
				got[i] = math.Float64frombits(0x7ff8dead0000beef) // a stale value must not survive
			}
			mulHidden(u, uT, h, got)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("H=%d rep %d: element %d = %v (%#x), MulVec %v (%#x)",
						H, rep, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

// fuzzFloats reads data as little-endian float64s, mapping NaN patterns to
// finite values (see the package comment above) and falling back to the
// awkward table when data holds less than one value.
func fuzzFloats(data []byte) []float64 {
	if len(data) < 8 {
		return awkward
	}
	vals := make([]float64, len(data)/8)
	for i := range vals {
		bits := binary.LittleEndian.Uint64(data[i*8:])
		if v := math.Float64frombits(bits); math.IsNaN(v) {
			bits &^= 1 << 62 // exponent no longer all ones: finite
		}
		vals[i] = math.Float64frombits(bits)
	}
	return vals
}

// FuzzMulMat draws shape, batch and values from the fuzz input and holds
// every kernel to the MulVec oracle.
func FuzzMulMat(f *testing.F) {
	var seed []byte
	for _, v := range awkward {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	for _, shape := range allShapes {
		// The target maps a drawn dimension d to 1 + d%352.
		f.Add(uint16(shape[0]-1), uint16(shape[1]-1), uint8(24), seed)
		f.Add(uint16(shape[0]-1), uint16(shape[1]-1), uint8(13), seed[:len(seed)-24])
	}
	f.Add(uint16(2), uint16(3), uint8(9), []byte{})
	f.Fuzz(func(t *testing.T, r16, c16 uint16, n8 uint8, data []byte) {
		r, c, n := 1+int(r16)%352, 1+int(c16)%352, int(n8)%51
		vals := fuzzFloats(data)
		w := make([]float64, r*c)
		for i := range w {
			w[i] = vals[i%len(vals)]
		}
		x := make([]float64, n*c)
		for i := range x {
			x[i] = vals[(i*7+3)%len(vals)]
		}
		checkMulMat(t, r, c, n, w, x)
	})
}
