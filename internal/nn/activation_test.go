package nn

// The activation kernels against their oracles. math.Tanh and the scalar
// sigmoid are the definition: tanhs and sigmoids must return their
// Float64bits for every input, on whichever path this build and CPU take
// (the AVX2 kernels where the CPU has AVX2 and FMA, the Go loops
// elsewhere). A NaN input must give a NaN; which NaN is not compared, as
// in FuzzMulMat.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// wantActKernel is whether the AVX2 activation kernels should run here;
// kernel_amd64_test.go sets it from the CPU's flags.
var wantActKernel bool

// halfMaxLog is math.tanh's saturation point, 0.5·MAXLOG.
const halfMaxLog = 0.5 * 8.8029691931113054295988e+01

func sameFloat(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// checkActivations runs tanhs (at bias) and sigmoids over a copy of xs and
// holds every element to math.Tanh(x + bias) and sigmoid(x).
func checkActivations(t testing.TB, xs []float64, bias float64) {
	t.Helper()
	got := append([]float64(nil), xs...)
	tanhs(got, bias)
	for i, x := range xs {
		if want := math.Tanh(x + bias); !sameFloat(got[i], want) {
			t.Fatalf("tanhs(len %d, bias %v)[%d]: tanh(%v) = %v (%#x), math.Tanh %v (%#x)",
				len(xs), bias, i, x, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
	copy(got, xs)
	sigmoids(got)
	for i, x := range xs {
		if want := sigmoid(x); !sameFloat(got[i], want) {
			t.Fatalf("sigmoids(len %d)[%d]: sigmoid(%v) = %v (%#x), scalar %v (%#x)",
				len(xs), i, x, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// activationEdges returns the special values and 2 000 ulps on each side of
// every branch point: tanh's ±0.625 (rational/exp) and ±0.5·MAXLOG
// (exp/saturated), and the sigmoid kernel's ±708 limit.
func activationEdges() []float64 {
	vals := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, edge := range []float64{0.625, halfMaxLog, 708} {
		for _, e := range []float64{edge, -edge} {
			lo, hi := e, e
			vals = append(vals, e)
			for k := 0; k < 2000; k++ {
				lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
				vals = append(vals, lo, hi)
			}
		}
	}
	return vals
}

func TestActivationKernelsMatchMath(t *testing.T) {
	if useActAVX2 != wantActKernel {
		t.Fatalf("activation kernel on = %v, want %v for this build and CPU", useActAVX2, wantActKernel)
	}
	path := "Go loops"
	if useActAVX2 {
		path = "AVX2 kernels"
	}
	t.Logf("activations on the %s", path)

	rng := rand.New(rand.NewSource(28))
	edges := activationEdges()
	t.Run("edges", func(t *testing.T) {
		for _, bias := range []float64{negZero, 0} {
			checkActivations(t, edges, bias)
		}
		// The sigmoid kernel takes exp(−|x|), so exp(−0) where the scalar
		// sigmoid(−0) takes exp(+0); the edges above hold it to the scalar
		// at ±0, and this holds the premise.
		if e0, en0 := math.Exp(0), math.Exp(negZero); math.Float64bits(e0) != math.Float64bits(en0) {
			t.Fatalf("math.Exp(+0) = %v, math.Exp(−0) = %v", e0, en0)
		}
	})

	draws := 4 << 20
	if testing.Short() {
		draws >>= 4
	}
	for _, d := range []struct {
		name string
		next func() float64
	}{
		{"normal", func() float64 { return 2 * rng.NormFloat64() }},
		{"uniform50", func() float64 { return 100*rng.Float64() - 50 }},
		{"uniform1.3", func() float64 { return 2.6*rng.Float64() - 1.3 }},
		{"bits", func() float64 { return math.Float64frombits(rng.Uint64()) }},
	} {
		t.Run(d.name, func(t *testing.T) {
			const chunk = 4096
			xs := make([]float64, chunk)
			for done := 0; done < draws; done += chunk {
				for i := range xs {
					xs[i] = d.next()
				}
				checkActivations(t, xs, negZero)
				checkActivations(t, xs, rng.NormFloat64())
			}
		})
	}

	t.Run("lengths", func(t *testing.T) {
		pick := func() float64 {
			if rng.Intn(2) == 0 {
				return edges[rng.Intn(len(edges))]
			}
			return 2 * rng.NormFloat64()
		}
		for n := 0; n <= 13; n++ {
			for rep := 0; rep < 200; rep++ {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = pick()
				}
				checkActivations(t, xs, negZero)
				checkActivations(t, xs, rng.NormFloat64())
			}
		}
	})

	t.Run("block24x160", func(t *testing.T) {
		// errorsPanels' shape: 160 neurons × a 24-lane batch, one bias
		// per neuron.
		const lanes, rows = 24, 160
		xs := make([]float64, lanes)
		for i := 0; i < rows; i++ {
			for b := range xs {
				xs[b] = 3 * rng.NormFloat64()
			}
			checkActivations(t, xs, rng.NormFloat64())
		}
	})
}

// FuzzTanhKernel reads raw float64 bits — NaNs, infinities and denormals
// included — and holds tanhs and sigmoids to math.Tanh and sigmoid, with no
// bias and with a fuzzed one.
func FuzzTanhKernel(f *testing.F) {
	var seed []byte
	for _, v := range activationEdges()[:64] {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(uint64(0), seed)
	f.Add(math.Float64bits(0.3), seed[:len(seed)-24])
	f.Add(math.Float64bits(-44), []byte{})
	f.Fuzz(func(t *testing.T, biasBits uint64, data []byte) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		checkActivations(t, xs, negZero)
		checkActivations(t, xs, math.Float64frombits(biasBits))
	})
}
