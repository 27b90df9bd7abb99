package features

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"clap/internal/attacks"
)

// goldenExtractRawDigest is FNV-64a over the bits of every raw feature of
// the corpus below, computed at the commit before checksum validity became
// a streaming sum and decoded option bytes moved into the packet's own
// allocation. Every feature of every attack-mutated clone must still come
// out the same.
const goldenExtractRawDigest = 0x5a1a9d77f132be07

// TestExtractRawGoldenDigest applies each of the 73 strategies to clones of
// a fixed-seed benign corpus and digests ExtractRaw over the result: the
// checksum-validity features (#15, #29) on every malformed layout the
// strategies produce, and every option-derived feature read through the
// clones' shared option buffer.
func TestExtractRawGoldenDigest(t *testing.T) {
	benign := benignConns(40, 7)
	rng := rand.New(rand.NewSource(7))
	h := fnv.New64a()
	var b [8]byte
	applied := 0
	for i, s := range attacks.All() {
		for k := 0; k < 3; k++ {
			c := benign[(3*i+k)%len(benign)].Clone()
			if s.Apply(c, rng) {
				applied++
			}
			for _, v := range ExtractRaw(c) {
				for _, x := range v {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
					h.Write(b[:])
				}
			}
		}
	}
	if applied < 150 {
		t.Fatalf("only %d of 219 strategy applications took: the corpus no longer exercises the strategies", applied)
	}
	if got := h.Sum64(); got != goldenExtractRawDigest {
		t.Errorf("ExtractRaw digest = %#x, want %#x", got, uint64(goldenExtractRawDigest))
	}
}
