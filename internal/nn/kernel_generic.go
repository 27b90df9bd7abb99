//go:build !amd64 || purego

package nn

// Kernel names the MulMat kernel this process runs: always "go" off amd64
// and under the purego build tag (see kernel_amd64.go for "avx2").
func Kernel() string { return "go" }

func (t *Tensor) mulMat(x []float64, n int, out []float64) { t.mulMatGo(x, n, out) }

func (ae *Autoencoder) errorsPanels(xs [][]float64, out []float64) bool { return false }

// recurOnPanels is false without the panel kernel: the GRU recurrence runs
// on MulVec, and mulRecur is never called.
func recurOnPanels(hidden int) bool { return false }

func mulRecur(uT, h, out []float64) { panic("nn: mulRecur without the panel kernel") }

// Without the AVX2 kernels the activations are the Go loops (tensor.go).
const useActAVX2 = false

func tanhs(v []float64, bias float64) { tanhsGo(v, bias) }

func sigmoids(v []float64) { sigmoidsGo(v) }

// Without the panel kernel every part of a TrainBatch runs on the
// per-sample passes (trainSamples).
type trainPanelScratch struct{}

func (ae *Autoencoder) trainPanels(xs [][]float64, s *trainScratch) (float64, bool) { return 0, false }
