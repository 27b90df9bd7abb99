package nn

import "fmt"

// TrainBatch runs one training step on a mini-batch: the per-sample
// gradients summed over the batch and averaged, clipped to a joint L2 norm
// of clip (when clip > 0), then one optimiser step. It returns the mean L1
// loss over the batch. The gradients must arrive zeroed, as NewTensor and
// Adam.Step leave them.
//
// The arithmetic is fixed, whatever the machine. A batch of four samples
// or more is split into two parts, its first ⌈n/2⌉ samples and the rest;
// a smaller batch is one part. Each part sums its per-sample gradients
// element by element, in sample order, from +0; the part sums are added
// into G in order, then come the ×1/n, the clip and the step. Where the
// CPU has AVX2, a part of two samples or more runs on the panel kernel
// (trainPanels, three panel products per layer); everywhere else, and for
// a lone sample, it runs the per-sample forward and backward passes
// (trainSamples). Both compute the same bits.
//
// The step's working memory rides on opt for the next step, so a step
// after the first allocates nothing on the panels, and it is garbage once
// the training run drops its optimiser. TrainBatch is not safe for
// concurrent use.
func (ae *Autoencoder) TrainBatch(xs [][]float64, opt *Adam, clip float64) float64 {
	return ae.trainBatch(xs, opt, clip, true)
}

// trainBatch is TrainBatch, with panels false keeping every part on the
// per-sample passes: the portable path, and the oracle the panel path is
// tested against.
func (ae *Autoencoder) trainBatch(xs [][]float64, opt *Adam, clip float64, panels bool) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	for _, x := range xs {
		if len(x) != ae.Sizes[0] {
			panic(fmt.Sprintf("nn: TrainBatch input width %d, want %d", len(x), ae.Sizes[0]))
		}
	}
	s := opt.scratchFor(ae)
	half := n
	if n >= 4 {
		half = (n + 1) / 2
	}
	loss := ae.trainPart(xs[:half], s, true, panels)
	if half < n {
		loss += ae.trainPart(xs[half:], s, false, panels)
	}
	inv := 1.0 / float64(n)
	for _, g := range s.grads {
		for i := range g {
			g[i] *= inv
		}
	}
	if clip > 0 {
		ClipGradients(clip, s.params...)
	}
	opt.Step()
	return loss * inv
}

// trainScratch is TrainBatch's working memory for one training run. It
// rides on the run's optimiser (Adam.train), not on the model or in a pool,
// so it lives exactly as long as the run does.
type trainScratch struct {
	ae     *Autoencoder
	params []*Tensor         // ae.Params(), the clip's order
	grads  [][]float64       // their G buffers
	part   [][]float64       // a second part's gradient sums on the per-sample path, params-shaped
	panels trainPanelScratch // the panel path's buffers (kernel_amd64.go)
}

// scratchFor returns the step scratch this optimiser keeps, starting a
// new one for an autoencoder it has not trained before.
func (a *Adam) scratchFor(ae *Autoencoder) *trainScratch {
	if a.train == nil || a.train.ae != ae {
		s := &trainScratch{ae: ae, params: ae.Params()}
		for _, p := range s.params {
			s.grads = append(s.grads, p.G)
		}
		a.train = s
	}
	return a.train
}

// trainPart adds one part's gradient sums into the model's G and returns
// the sum of its per-sample losses; first says whether G still holds
// zeros.
func (ae *Autoencoder) trainPart(xs [][]float64, s *trainScratch, first, panels bool) float64 {
	if panels {
		if loss, ok := ae.trainPanels(xs, s); ok {
			return loss
		}
	}
	return ae.trainSamples(xs, s, first)
}

// trainSamples is a part on the per-sample passes. The first part sums
// straight into G, which holds +0s; a second one sums into s.part, which
// is then added into G.
func (ae *Autoencoder) trainSamples(xs [][]float64, s *trainScratch, first bool) float64 {
	grads := s.grads
	if !first {
		if s.part == nil {
			for _, g := range s.grads {
				s.part = append(s.part, make([]float64, len(g)))
			}
		}
		for _, g := range s.part {
			clear(g)
		}
		grads = s.part
	}
	var loss float64
	for _, x := range xs {
		loss += ae.backward(ae.forward(x), grads)
	}
	if !first {
		for k, g := range s.part {
			dst := s.grads[k]
			for i, v := range g {
				dst[i] += v
			}
		}
	}
	return loss
}
