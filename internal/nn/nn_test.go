package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// numericalGrad estimates dLoss/dW[i] by central differences.
func numericalGrad(param *Tensor, i int, eps float64, loss func() float64) float64 {
	orig := param.W[i]
	param.W[i] = orig + eps
	lp := loss()
	param.W[i] = orig - eps
	lm := loss()
	param.W[i] = orig
	return (lp - lm) / (2 * eps)
}

func TestGRUGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewGRUClassifier(3, 4, 3, rng)
	T := 6
	seq := make([][]float64, T)
	labels := make([]int, T)
	for i := range seq {
		seq[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		labels[i] = rng.Intn(3)
	}
	lossFn := func() float64 { return m.Forward(seq).Loss(labels) }

	st := m.Forward(seq)
	m.Backward(st, labels)

	const eps = 1e-6
	for pi, p := range m.Params() {
		for i := 0; i < len(p.W); i += 3 { // sample every third weight
			want := numericalGrad(p, i, eps, lossFn)
			got := p.G[i]
			if diff := math.Abs(got - want); diff > 1e-5 && diff > 1e-3*math.Abs(want) {
				t.Fatalf("param %d weight %d: analytic %g vs numeric %g", pi, i, got, want)
			}
		}
	}
}

func TestAutoencoderGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ae := NewAutoencoder([]int{5, 4, 2, 4, 5}, rng)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	lossFn := func() float64 {
		y := ae.Reconstruct(x)
		var s float64
		for i := range y {
			s += math.Abs(y[i] - x[i])
		}
		return s / float64(len(x))
	}
	base := ae.Reconstruct(x)
	acts := ae.forward(x)
	ae.backward(acts, gradBufs(ae))

	const eps = 1e-6
	for pi, p := range ae.Params() {
		for i := 0; i < len(p.W); i += 2 {
			want := numericalGrad(p, i, eps, lossFn)
			got := p.G[i]
			// |.| is non-differentiable where y==x; skip coordinates whose
			// perturbation could cross the kink.
			nearKink := false
			for j := range base {
				if math.Abs(base[j]-x[j]) < 1e-4 {
					nearKink = true
				}
			}
			if nearKink {
				continue
			}
			if diff := math.Abs(got - want); diff > 1e-5 && diff > 1e-3*math.Abs(want) {
				t.Fatalf("param %d weight %d: analytic %g vs numeric %g", pi, i, got, want)
			}
		}
	}
}

func TestGRULearnsTemporalPattern(t *testing.T) {
	// Task: label[t] = 1 iff input at t-1 had its first component > 0.
	// Impossible without memory, so success demonstrates working BPTT.
	rng := rand.New(rand.NewSource(3))
	m := NewGRUClassifier(2, 8, 2, rng)
	opt := NewAdam(0.01)
	opt.Register(m.Params()...)

	mkSeq := func() ([][]float64, []int) {
		T := 12
		seq := make([][]float64, T)
		labels := make([]int, T)
		prev := 0
		for i := range seq {
			b := rng.Intn(2)
			seq[i] = []float64{float64(b)*2 - 1, rng.NormFloat64() * 0.1}
			labels[i] = prev
			prev = b
		}
		return seq, labels
	}
	for epoch := 0; epoch < 300; epoch++ {
		seq, labels := mkSeq()
		m.TrainSequence(seq, labels, opt, 5)
	}
	var acc float64
	const trials = 50
	for i := 0; i < trials; i++ {
		seq, labels := mkSeq()
		acc += m.Forward(seq).Accuracy(labels)
	}
	acc /= trials
	if acc < 0.95 {
		t.Errorf("temporal-pattern accuracy = %.3f, want >= 0.95", acc)
	}
}

func TestAutoencoderDetectsOutOfDistribution(t *testing.T) {
	// Train on points from a 2-D manifold embedded in 6-D; anomalies are
	// off-manifold. Reconstruction error must separate them.
	rng := rand.New(rand.NewSource(4))
	ae := NewAutoencoder([]int{6, 4, 2, 4, 6}, rng)
	opt := NewAdam(0.005)
	opt.Register(ae.Params()...)

	sample := func() []float64 {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		return []float64{a, b, a + b, a - b, a * 0.5, b * 0.5}
	}
	var batch [][]float64
	for epoch := 0; epoch < 600; epoch++ {
		batch = batch[:0]
		for i := 0; i < 16; i++ {
			batch = append(batch, sample())
		}
		ae.TrainBatch(batch, opt, 5)
	}
	var benign, anomalous float64
	const trials = 100
	for i := 0; i < trials; i++ {
		benign += ae.Error(sample())
		x := sample()
		x[2] = -x[2] // break the manifold constraint
		anomalous += ae.Error(x)
	}
	benign /= trials
	anomalous /= trials
	if anomalous < benign*2 {
		t.Errorf("anomaly error %.4f not well above benign %.4f", anomalous, benign)
	}
}

func TestAdamMinimizesQuadratic(t *testing.T) {
	p := NewTensor(3, 1)
	p.W[0], p.W[1], p.W[2] = 5, -7, 2
	opt := NewAdam(0.05)
	opt.Register(p)
	target := []float64{1, 2, 3}
	for i := 0; i < 2000; i++ {
		for j := range p.W {
			p.G[j] = 2 * (p.W[j] - target[j])
		}
		opt.Step()
	}
	for j := range p.W {
		if math.Abs(p.W[j]-target[j]) > 1e-2 {
			t.Errorf("param %d = %g, want %g", j, p.W[j], target[j])
		}
	}
}

func TestClipGradients(t *testing.T) {
	a := NewTensor(2, 2)
	b := NewTensor(2, 1)
	for i := range a.G {
		a.G[i] = 10
	}
	b.G[0], b.G[1] = 10, 10
	pre := ClipGradients(1.0, a, b)
	if math.Abs(pre-math.Sqrt(600)) > 1e-9 {
		t.Errorf("pre-clip norm = %g, want %g", pre, math.Sqrt(600))
	}
	var total float64
	for _, ten := range []*Tensor{a, b} {
		for _, g := range ten.G {
			total += g * g
		}
	}
	if math.Abs(math.Sqrt(total)-1.0) > 1e-9 {
		t.Errorf("post-clip norm = %g, want 1", math.Sqrt(total))
	}
	// Below the threshold nothing changes.
	a.ZeroGrad()
	b.ZeroGrad()
	a.G[0] = 0.5
	if ClipGradients(1.0, a, b); a.G[0] != 0.5 {
		t.Error("clip modified a gradient already under the bound")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 32 {
			return true
		}
		logits := make([]float64, len(raw))
		for i, v := range raw {
			logits[i] = math.Mod(v, 500) // keep magnitudes finite but large
			if math.IsNaN(logits[i]) {
				logits[i] = 0
			}
		}
		out := make([]float64, len(logits))
		Softmax(logits, out)
		var sum float64
		for _, p := range out {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxExtremeLogits(t *testing.T) {
	out := make([]float64, 3)
	Softmax([]float64{1000, -1000, 999}, out)
	if math.IsNaN(out[0]) || out[0] < 0.7 {
		t.Errorf("softmax unstable for large logits: %v", out)
	}
}

func TestGateActivationsInUnitInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewGRUClassifier(4, 6, 3, rng)
	seq := make([][]float64, 10)
	for i := range seq {
		seq[i] = []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64(), rng.NormFloat64()}
	}
	st := m.Forward(seq)
	for t2, z := range st.Z {
		for i := range z {
			if z[i] <= 0 || z[i] >= 1 || st.R[t2][i] <= 0 || st.R[t2][i] >= 1 {
				t.Fatalf("gate activation out of (0,1) at step %d", t2)
			}
		}
	}
}

func TestGRUPersistRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewGRUClassifier(3, 5, 4, rng)
	seq := [][]float64{{1, 2, 3}, {0.5, -1, 2}}
	want := m.Forward(seq).Probs

	var buf bytes.Buffer
	if err := SaveGRU(&buf, m); err != nil {
		t.Fatalf("SaveGRU: %v", err)
	}
	m2, err := LoadGRU(&buf)
	if err != nil {
		t.Fatalf("LoadGRU: %v", err)
	}
	got := m2.Forward(seq).Probs
	for t2 := range want {
		for i := range want[t2] {
			if math.Abs(got[t2][i]-want[t2][i]) > 1e-12 {
				t.Fatalf("probs differ after round trip at (%d,%d)", t2, i)
			}
		}
	}
}

func TestAutoencoderPersistRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ae := NewAutoencoder([]int{4, 3, 2, 3, 4}, rng)
	x := []float64{0.1, -0.5, 2, 0.7}
	want := ae.Error(x)

	var buf bytes.Buffer
	if err := SaveAutoencoder(&buf, ae); err != nil {
		t.Fatalf("SaveAutoencoder: %v", err)
	}
	ae2, err := LoadAutoencoder(&buf)
	if err != nil {
		t.Fatalf("LoadAutoencoder: %v", err)
	}
	if got := ae2.Error(x); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Error after round trip = %g, want %g", got, want)
	}
	if ae2.BottleneckSize() != 2 {
		t.Errorf("BottleneckSize = %d, want 2", ae2.BottleneckSize())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadGRU(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Error("LoadGRU should fail on garbage")
	}
	if _, err := LoadAutoencoder(bytes.NewReader(nil)); err == nil {
		t.Error("LoadAutoencoder should fail on empty input")
	}
}

func TestNewAutoencoderValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched input/output sizes should panic")
		}
	}()
	NewAutoencoder([]int{4, 2, 5}, rand.New(rand.NewSource(1)))
}

func TestMulVecShapePanics(t *testing.T) {
	m := NewTensor(2, 3)
	defer func() {
		if recover() == nil {
			t.Error("MulVec with wrong shapes should panic")
		}
	}()
	m.MulVec(make([]float64, 4), make([]float64, 2))
}

func TestTensorXavierRange(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tn := NewXavier(30, 20, rng)
	limit := math.Sqrt(6.0 / 50.0)
	for _, w := range tn.W {
		if math.Abs(w) > limit {
			t.Fatalf("weight %g outside Xavier limit %g", w, limit)
		}
	}
	var mean float64
	for _, w := range tn.W {
		mean += w
	}
	mean /= float64(len(tn.W))
	if math.Abs(mean) > limit/5 {
		t.Errorf("weights look biased: mean %g", mean)
	}
}

func BenchmarkGRUForward32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewGRUClassifier(32, 32, 22, rng)
	seq := make([][]float64, 20)
	for i := range seq {
		seq[i] = make([]float64, 32)
		for j := range seq[i] {
			seq[i][j] = rng.NormFloat64()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(seq)
	}
}

func BenchmarkAutoencoderError345(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ae := NewAutoencoder([]int{345, 160, 80, 40, 80, 160, 345}, rng)
	x := make([]float64, 345)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ae.Error(x)
	}
}
