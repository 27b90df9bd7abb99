package core

import (
	"hash/fnv"
	"math"
	"testing"

	"clap/internal/nn"
)

// paramDigest is FNV-64a over the bits of every parameter of a trained
// detector: the GRU's (when it has one), then the autoencoder's.
func paramDigest(d *Detector) uint64 {
	h := fnv.New64a()
	var ps []*nn.Tensor
	if d.RNN != nil {
		ps = append(ps, d.RNN.Params()...)
	}
	ps = append(ps, d.AE.Params()...)
	var b [8]byte
	for _, p := range ps {
		for _, w := range p.W {
			u := math.Float64bits(w)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestTrainedModelDigest pins the trained bits of a TinyConfig CLAP and of
// a Baseline #1 on fixed trafficgen seeds. Training depends on nothing but
// the data and the seed — not on the CPU count, the kernel or the build
// tags — so the digests hold on every machine and in every CI cell.
func TestTrainedModelDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		det  func(*testing.T) *Detector
		want uint64
	}{
		{"clap", testDetector, 0x3a4f433c2232b5ab},
		{"baseline1", testBaseline1, 0x67258294d9b8a520},
	} {
		if got := paramDigest(tc.det(t)); got != tc.want {
			t.Errorf("%s: parameter digest %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
