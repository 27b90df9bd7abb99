package kitsune

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"clap/internal/attacks"
	"clap/internal/flow"
	"clap/internal/packet"
	"clap/internal/trafficgen"
)

func trainStream(n int, seed int64) []*packet.Packet {
	cfg := trafficgen.DefaultConfig(n)
	cfg.Seed = seed
	return trafficgen.GeneratePackets(cfg)
}

// connErrors is a connection's per-packet series through the batched
// pair, the one scoring path.
func connErrors(k *Kitsune, c *flow.Connection) []float64 { return k.ScoreWindows(k.Windows(c)) }

// connScore is the flow-level reduction of connErrors: the max packet
// score (0 for an empty connection).
func connScore(k *Kitsune, c *flow.Connection) float64 {
	var m float64
	for _, e := range connErrors(k, c) {
		if e > m {
			m = e
		}
	}
	return m
}

// oracleErrors is the per-packet execute loop the batched pair replaced,
// kept as its oracle: one extractor update, normalisation, ensemble and
// output layer per packet.
func oracleErrors(k *Kitsune, c *flow.Connection) []float64 {
	ext := NewExtractor(k.cfg.Lambdas)
	out := make([]float64, c.Len())
	for i, p := range c.Packets {
		norm := k.normalize(ext.Update(p))
		out[i] = k.output.Error(k.normalizeErrs(k.ensembleErrors(norm)))
	}
	return out
}

func TestIncStatDecay(t *testing.T) {
	s := incStat{lambda: 1}
	s.insert(0, 10)
	if got := s.mean(); got != 10 {
		t.Fatalf("mean = %g, want 10", got)
	}
	// After one second at λ=1 the old weight halves.
	s.insert(1, 0)
	wantMean := (10 * 0.5) / (0.5 + 1)
	if got := s.mean(); math.Abs(got-wantMean) > 1e-12 {
		t.Errorf("decayed mean = %g, want %g", got, wantMean)
	}
	if s.variance() < 0 {
		t.Error("variance must be non-negative")
	}
}

func TestIncStatNonMonotonicTimeTolerated(t *testing.T) {
	s := incStat{lambda: 1}
	s.insert(5, 1)
	s.insert(4, 2) // out-of-order timestamp: no negative decay blowup
	if math.IsNaN(s.mean()) || math.IsInf(s.mean(), 0) {
		t.Error("out-of-order insert broke the stream")
	}
}

func TestExtractorVectorShape(t *testing.T) {
	ext := NewExtractor(nil)
	for i, p := range trainStream(10, 1) {
		v := ext.Update(p)
		if len(v) != NumFeatures {
			t.Fatalf("packet %d: %d features, want %d", i, len(v), NumFeatures)
		}
		for j, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("packet %d feature %d is %g", i, j, x)
			}
		}
	}
}

func TestExtractorSeparatesHosts(t *testing.T) {
	ext := NewExtractor(nil)
	a := [4]byte{1, 1, 1, 1}
	b := [4]byte{2, 2, 2, 2}
	ts := time.Unix(1600000000, 0)
	mk := func(src, dst [4]byte, size int, at time.Duration) *packet.Packet {
		return packet.NewBuilder(src, dst, 10, 20).Flags(packet.ACK).
			PayloadLen(size).Time(ts.Add(at)).Build()
	}
	// Host a sends big packets; host b tiny ones.
	var va, vb []float64
	for i := 0; i < 20; i++ {
		va = ext.Update(mk(a, b, 1000, time.Duration(i)*time.Millisecond))
		vb = ext.Update(mk(b, a, 10, time.Duration(i)*time.Millisecond+500*time.Microsecond))
	}
	// Feature 1 is the λ=5 host mean size.
	if va[1] <= vb[1] {
		t.Errorf("host mean sizes not separated: a=%g b=%g", va[1], vb[1])
	}
}

func TestTrainBuildsEnsemble(t *testing.T) {
	k := New(DefaultConfig())
	k.Train(trainStream(150, 3))
	if k.EnsembleSize() == 0 {
		t.Fatal("no ensemble built")
	}
	if k.EnsembleSize() < 10 || k.EnsembleSize() > 40 {
		t.Errorf("ensemble size = %d, expected a Table-6-like ensemble (~16)", k.EnsembleSize())
	}
	covered := map[int]bool{}
	for _, cl := range k.Clusters() {
		if len(cl) > k.cfg.MaxAEInput {
			t.Errorf("cluster of size %d exceeds cap %d", len(cl), k.cfg.MaxAEInput)
		}
		for _, f := range cl {
			if covered[f] {
				t.Errorf("feature %d in two clusters", f)
			}
			covered[f] = true
		}
	}
	if len(covered) != NumFeatures {
		t.Errorf("clusters cover %d features, want %d", len(covered), NumFeatures)
	}
}

func TestScoresAreFiniteAndFrozen(t *testing.T) {
	k := New(DefaultConfig())
	k.Train(trainStream(120, 5))
	cfg := trafficgen.DefaultConfig(10)
	cfg.Seed = 99
	for _, c := range trafficgen.Generate(cfg) {
		s := connScore(k, c)
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
			t.Fatalf("bad connection score %g", s)
		}
	}
}

func TestKitsuneDetectsVolumeAnomaly(t *testing.T) {
	// Kitsune's home turf: a flood of identical packets from one host must
	// score above benign traffic. This guards against the baseline being
	// accidentally broken (its Table-1 weakness must come from its feature
	// blindness, not from bugs).
	k := New(DefaultConfig())
	k.Train(trainStream(200, 7))

	cfg := trafficgen.DefaultConfig(10)
	cfg.Seed = 101
	benign := trafficgen.Generate(cfg)
	var benignMax float64
	for _, c := range benign {
		if s := connScore(k, c); s > benignMax {
			benignMax = s
		}
	}

	// Syn-flood-ish burst: thousands of minimal SYNs at microsecond gaps.
	flood := &flow.Connection{}
	src := [4]byte{66, 6, 6, 6}
	dst := [4]byte{99, 9, 9, 9}
	ts := time.Unix(1586236600, 0)
	for i := 0; i < 800; i++ {
		p := packet.NewBuilder(src, dst, uint16(1000+i%7), 80).
			Seq(uint32(i)).Flags(packet.SYN).Time(ts.Add(time.Duration(i) * 40 * time.Microsecond)).Build()
		flood.Append(p, flow.ClientToServer)
	}
	floodScore := connScore(k, flood)
	if floodScore <= benignMax {
		t.Errorf("flood score %g not above benign max %g", floodScore, benignMax)
	}
}

func TestShortStreamStillTrains(t *testing.T) {
	k := New(DefaultConfig())
	k.Train(trainStream(5, 9)) // far below FMWindow
	if k.EnsembleSize() == 0 {
		t.Fatal("short stream should still build a feature map")
	}
	cfg := trafficgen.DefaultConfig(3)
	cfg.Seed = 11
	for _, c := range trafficgen.Generate(cfg) {
		if s := connScore(k, c); math.IsNaN(s) {
			t.Fatal("NaN score after short training")
		}
	}
}

func TestCorrelationMatrixProperties(t *testing.T) {
	window := [][]float64{
		{1, 2, 1, 5},
		{2, 4, 1, 4},
		{3, 6, 1, 3},
		{4, 8, 1, 2},
	}
	c := correlationMatrix(window, 4)
	if math.Abs(c[0][1]-1) > 1e-9 {
		t.Errorf("corr(x,2x) = %g, want 1", c[0][1])
	}
	if math.Abs(c[0][3]+1) > 1e-9 {
		t.Errorf("corr(x,-x) = %g, want -1", c[0][3])
	}
	if c[2][2] != 1 {
		t.Errorf("constant feature self-corr = %g, want 1", c[2][2])
	}
	if c[0][2] != 0 {
		t.Errorf("corr with constant = %g, want 0", c[0][2])
	}
	for i := range c {
		for j := range c {
			if math.Abs(c[i][j]-c[j][i]) > 1e-12 {
				t.Fatal("correlation matrix not symmetric")
			}
		}
	}
}

// TestScoreWindowsMatchesPacketLoop: the batched pair's series equals the
// per-packet execute loop bit for bit, on benign connections, on attack
// connections and on an empty one, whole and split into batches, and each
// window is one float per ensemble member.
func TestScoreWindowsMatchesPacketLoop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FMWindow = 300
	k := New(cfg)
	k.Train(trainStream(60, 5))
	gen := trafficgen.DefaultConfig(8)
	gen.Seed = 23
	conns := trafficgen.Generate(gen)
	rng := rand.New(rand.NewSource(7))
	for _, st := range attacks.All()[:20] {
		for _, c := range conns {
			if cc := c.Clone(); st.Apply(cc, rng) {
				conns = append(conns, cc)
				break
			}
		}
	}
	conns = append(conns, &flow.Connection{})
	attacked := 0
	for i, c := range conns {
		if c.IsAdversarial() {
			attacked++
		}
		want := oracleErrors(k, c)
		wins := k.Windows(c)
		if len(wins) != c.Len() {
			t.Fatalf("conn %d: %d windows for %d packets", i, len(wins), c.Len())
		}
		// A window is the ensemble's error vector, not the 100-feature
		// AfterImage vector: what a long connection keeps resident.
		for j, w := range wins {
			if len(w) != k.EnsembleSize() {
				t.Fatalf("conn %d window %d: %d wide, want the ensemble's %d", i, j, len(w), k.EnsembleSize())
			}
		}
		half := len(wins) / 2
		split := append(k.ScoreWindows(wins[:half]), k.ScoreWindows(wins[half:])...)
		for name, got := range map[string][]float64{"whole": k.ScoreWindows(wins), "split": split} {
			if len(got) != len(want) {
				t.Fatalf("conn %d %s: %d errors, want %d", i, name, len(got), len(want))
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("conn %d %s packet %d: %v, want %v", i, name, j, got[j], want[j])
				}
			}
		}
	}
	if attacked == 0 {
		t.Fatal("no attack connection covered")
	}
}
