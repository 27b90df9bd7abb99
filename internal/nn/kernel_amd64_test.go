//go:build !purego

package nn

// On amd64 the oracle tests also call the assembly directly, whatever the
// batch size (MulMat keeps a lone row on MulVec), so the AVX2 panels and
// the Go fallback are both checked in one binary.
func init() {
	if useAVX2 {
		mulMatImpls = append(mulMatImpls, mulMatImpl{"avx2", func(t *Tensor, x []float64, n int, out []float64) {
			if n > 0 {
				t.mulMatAVX2(x, n, out)
			}
		}})
	}
}
