//go:build !purego

package nn

import (
	"os"
	"strings"
)

// On amd64 the oracle tests also call the assembly directly, whatever the
// batch size (MulMat keeps a lone row on MulVec), so the AVX2 panels and
// the Go fallback are both checked in one binary.
//
// The activation kernels should run where the CPU has AVX2 and FMA. On
// Linux that is read from the flags the OS reports, independently of the
// package's own CPUID probe; elsewhere the probe is all there is.
func init() {
	wantActKernel = hasAVX2() && hasFMA()
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		flags := map[string]bool{}
		for _, line := range strings.Split(string(info), "\n") {
			if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
				for _, f := range strings.Fields(list) {
					flags[f] = true
				}
				break
			}
		}
		wantActKernel = flags["avx2"] && flags["fma"]
	}
	if useAVX2 {
		mulMatImpls = append(mulMatImpls, mulMatImpl{"avx2", func(t *Tensor, x []float64, n int, out []float64) {
			if n > 0 {
				t.mulMatAVX2(x, n, out)
			}
		}})
	}
}
