package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"clap/internal/features"
	"clap/internal/flow"
	"clap/internal/nn"
	"clap/internal/tcpstate"
)

// Detector is a trained CLAP instance: the fitted feature profile, the
// state-prediction RNN and the context autoencoder, plus the configuration
// they were trained under.
//
// A trained Detector is safe for concurrent use: the inference methods
// (StackedProfilesBatched, ScoreFromErrors, RNNAccuracyConn, the serial
// oracle chain and friends) only read model state — every scratch buffer
// in the nn forward passes is per-call or pooled. The parallel scoring
// engine (internal/engine) relies on this contract.
//
// Scoring runs through the batched pair alone: StackedProfilesBatched
// produces a connection's windows and AE.ErrorsBatch scores them
// (internal/backend's CLAP adapter). Score, WindowErrors, StackedProfiles,
// ContextProfiles and stack, with nn's ForwardGates and Errors beneath
// them, are the serial oracle those are held to bit for bit; no
// production, evaluation or training code calls them.
type Detector struct {
	Cfg     Config
	Profile *features.Profile
	RNN     *nn.GRUClassifier
	AE      *nn.Autoencoder

	// windows and scratch recycle the batched scoring path's buffers: what
	// StackedProfilesBatched returns, and what never leaves it.
	windows, scratch slabPool
}

// ErrNoTrainingData is returned when Train receives no usable connections.
var ErrNoTrainingData = errors.New("core: no training connections")

// Logf is an optional progress sink for Train.
type Logf func(format string, args ...any)

// Train runs stages (a)-(c) over benign connections and returns a ready
// detector.
func Train(benign []*flow.Connection, cfg Config, logf Logf) (*Detector, error) {
	if len(benign) == 0 {
		return nil, ErrNoTrainingData
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	d := &Detector{Cfg: cfg}
	d.Profile = features.FitProfile(benign)
	logf("fitted feature profile on %d packets", d.Profile.Fitted)

	// Vectorize once; both stages reuse the feature matrices.
	vecs := make([][][]float64, len(benign))
	labels := make([][]int, len(benign))
	for i, c := range benign {
		vecs[i] = d.Profile.Vectorize(c)
		ls := tcpstate.Labels(c, cfg.Endhost)
		labels[i] = make([]int, len(ls))
		for j, l := range ls {
			labels[i][j] = l.Class()
		}
	}

	// Stage (a): RNN learns reference-state prediction.
	d.RNN = nn.NewGRUClassifier(features.NumRNN, cfg.RNNHidden, tcpstate.NumClasses, rng)
	opt := nn.NewAdam(cfg.RNNLearn)
	opt.Register(d.RNN.Params()...)
	order := rng.Perm(len(benign))
	for epoch := 0; epoch < cfg.RNNEpochs; epoch++ {
		var loss float64
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			if len(vecs[i]) == 0 {
				continue
			}
			loss += d.RNN.TrainSequence(features.RNNInputs(vecs[i]), labels[i], opt, cfg.RNNClip)
		}
		logf("RNN epoch %d/%d: mean loss %.4f", epoch+1, cfg.RNNEpochs, loss/float64(len(benign)))
	}

	// Stage (b): benign context profiles, stacked into windows on the
	// batched GRU kernel the scoring path runs.
	wins := make([][][]float64, len(benign))
	var stacked [][]float64
	for i, c := range benign {
		wins[i] = d.StackedProfilesBatched(c)
		stacked = append(stacked, wins[i]...)
	}
	logf("built %d stacked context profiles (width %d)", len(stacked), cfg.ProfileWidth()*cfg.StackLength)

	// Stage (c): autoencoder learns the joint context distribution.
	// Restarts are selected by the benign score floor on a held-out
	// validation slice: the detector's false-positive behaviour depends on
	// the *peak* reconstruction error over benign connections, not the
	// mean training loss, and narrow bottlenecks land in basins that
	// differ mostly in that peak flatness.
	restarts := cfg.AERestarts
	if restarts < 1 {
		restarts = 1
	}
	valStart := len(benign) * 85 / 100
	if restarts == 1 || len(benign)-valStart < 8 {
		valStart = len(benign) // no validation split needed
	}
	var valWindows [][][]float64
	for _, w := range wins[valStart:] {
		if len(w) > 0 {
			valWindows = append(valWindows, w)
		}
	}
	bestFloor := 0.0
	for r := 0; r < restarts; r++ {
		ae, loss := trainAE(stacked, cfg, rand.New(rand.NewSource(cfg.Seed+int64(r)*7919)), r, logf)
		floor := loss
		if len(valWindows) > 0 {
			floor = benignScoreFloor(d, ae, valWindows)
		}
		logf("AE[restart %d] benign score floor %.5f", r, floor)
		if d.AE == nil || floor < bestFloor {
			d.AE, bestFloor = ae, floor
		}
	}
	if restarts > 1 {
		logf("kept autoencoder with benign score floor %.5f", bestFloor)
	}
	return d, nil
}

// benignScoreFloor computes the 90th-percentile connection score of a
// candidate autoencoder over pre-stacked validation windows.
func benignScoreFloor(d *Detector, ae *nn.Autoencoder, valWindows [][][]float64) float64 {
	scores := make([]float64, 0, len(valWindows))
	for _, wins := range valWindows {
		scores = append(scores, d.ScoreFromErrors(ae.ErrorsBatch(wins)).Adversarial)
	}
	sort.Float64s(scores)
	return scores[len(scores)*9/10]
}

// trainAE runs one full autoencoder training with a stepped learning-rate
// schedule (halved at 50%% and 75%% of the epoch budget) and returns the
// model with its final-epoch mean loss.
func trainAE(stacked [][]float64, cfg Config, rng *rand.Rand, restart int, logf Logf) (*nn.Autoencoder, float64) {
	ae := nn.NewAutoencoder(cfg.AESizes(), rng)
	opt := nn.NewAdam(cfg.AELearn)
	opt.Register(ae.Params()...)
	batch := cfg.AEBatch
	if batch <= 0 {
		batch = 32
	}
	idx := rng.Perm(len(stacked))
	xs := make([][]float64, 0, batch)
	var epochLoss float64
	for epoch := 0; epoch < cfg.AEEpochs; epoch++ {
		switch {
		case epoch == cfg.AEEpochs*3/4:
			opt.LR = cfg.AELearn / 4
		case epoch == cfg.AEEpochs/2:
			opt.LR = cfg.AELearn / 2
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var loss float64
		var batches int
		for at := 0; at < len(idx); at += batch {
			end := at + batch
			if end > len(idx) {
				end = len(idx)
			}
			xs = xs[:0]
			for _, k := range idx[at:end] {
				xs = append(xs, stacked[k])
			}
			loss += ae.TrainBatch(xs, opt, cfg.AEClip)
			batches++
		}
		epochLoss = loss / float64(batches)
		if epoch == cfg.AEEpochs-1 || (epoch+1)%10 == 0 || cfg.AEEpochs <= 10 {
			logf("AE[restart %d] epoch %d/%d: mean L1 loss %.5f", restart, epoch+1, cfg.AEEpochs, epochLoss)
		}
	}
	return ae, epochLoss
}

// The batched scoring path recycles its buffers — a connection's feature
// vectors, its context profiles and its stacked windows, each a flat
// float64 backing with the row headers carved over it — through two
// slabPools per detector. At ~3KB per window plus 51 floats per packet,
// allocating them fresh per connection makes the garbage collector a
// measurable fraction of the hot path; the pools keep steady-state batched
// scoring allocating per connection only what escapes to the caller. Only
// the batched path uses them, and the serial oracle keeps plain
// allocations; a caller that keeps its windows (training) simply never
// recycles them.
//
// Two pools because the buffers live differently. What
// StackedProfilesBatched returns (windows) is out until the engine's
// micro-batcher recycles it once the connection's last window is scored,
// and is the largest buffer of the three; the vectors and profiles behind
// it (scratch) are a seventh to a third of its size and go back before the
// producer returns. In one pool the small short-lived requests keep taking
// the large buffers, and every window request that then finds a small one
// allocates another large one: file-clap's peak RSS was 17 MB higher.

// slab is one pooled buffer: a flat backing and row headers to carve over
// it. Both are handed out empty, with at least the capacity asked for.
type slab struct {
	data []float64
	rows [][]float64
}

// slabPool is a bounded free list of slabs. Unlike a sync.Pool it hands
// out the slab that fits the request (get) and keeps its slabs across
// garbage collections; a sync.Pool hands out whichever slab it holds, and
// one that comes back too small is regrown and its backing dropped. The
// list keeps at most keepSlabs slabs and no slab above keepFloats values,
// so a huge connection's buffer is still left to the GC. It keeps slabs
// by value, so handing one back allocates nothing. The zero value is
// ready.
type slabPool struct {
	mu   sync.Mutex
	free []slab
}

const (
	keepSlabs  = 32
	keepFloats = 1 << 20 // 8 MB: stacked windows of a 3 000-packet connection
)

// get takes the free slab that holds n values most tightly or, when none
// is large enough, the smallest, which the caller regrows; the zero slab
// when there is none. Taking by size matters because one pool serves
// requests of different sizes in a fixed order — a connection's vectors,
// then its wider profiles — and the last slab returned is seldom the one
// that fits.
func (p *slabPool) get(n int) slab {
	p.mu.Lock()
	defer p.mu.Unlock()
	best := -1
	for i := range p.free {
		if best < 0 {
			best = i
			continue
		}
		c, b := cap(p.free[i].data), cap(p.free[best].data)
		if (c >= n) != (b >= n) {
			if c >= n {
				best = i
			}
		} else if c < b {
			best = i
		}
	}
	if best < 0 {
		return slab{}
	}
	last := len(p.free) - 1
	s := p.free[best]
	p.free[best] = p.free[last]
	p.free[last] = slab{}
	p.free = p.free[:last]
	return s
}

// put returns a slab to the list, unless the list is full or the slab is
// too large to keep.
func (p *slabPool) put(s slab) {
	if cap(s.data) > keepFloats {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < keepSlabs {
		p.free = append(p.free, s)
	}
}

// getSlab takes a slab with room for n values in rows rows from pool.
func getSlab(pool *slabPool, n, rows int) slab {
	s := pool.get(n)
	if cap(s.data) < n {
		s.data = make([]float64, 0, n)
	}
	if cap(s.rows) < rows {
		s.rows = make([][]float64, 0, rows)
	}
	s.data, s.rows = s.data[:0], s.rows[:0]
	return s
}

// featWidth is the packet-feature prefix of a context profile row (the
// part that comes straight from the feature vector, before gate blocks).
func (d *Detector) featWidth() int {
	if d.Cfg.UseAmplification {
		return features.NumPacket
	}
	return features.NumRNN
}

// contextProfiles fuses packet features with the RNN's per-step gate
// activations (Equation 2): CxtProf = [P_IP, P_TCP, P_amp, G_update,
// G_reset]. A non-nil slab (room for len(vecs)·ProfileWidth values in
// len(vecs) rows), which the batched path passes from its pool, selects
// the batched GRU kernel — it hoists the input projections of the whole
// sequence into matrix-matrix passes — and is carved into the profile
// rows; nil runs the serial oracle's kernel into fresh rows. Both kernels
// produce bit-identical gates. The rows are copies: vecs is not
// referenced afterwards.
func (d *Detector) contextProfiles(vecs [][]float64, ps *slab) [][]float64 {
	if len(vecs) == 0 {
		return nil
	}
	// ForwardGates skips the softmax head the scoring path never reads; its
	// Z/R are bit-identical to the full Forward pass.
	pooled := ps != nil
	var gz, gr [][]float64
	if d.Cfg.UseUpdateGates || d.Cfg.UseResetGates {
		if pooled {
			// Pooled gate buffers: the gates are copied into the profile
			// rows below, so the backing is released before returning. The
			// batched pass reads each vector's RNN prefix in place.
			var release func()
			gz, gr, release = d.RNN.ForwardGatesBatchPooled(vecs)
			defer release()
		} else {
			gz, gr = d.RNN.ForwardGates(features.RNNInputs(vecs))
		}
	}
	featWidth := d.featWidth()
	// One backing array for all profiles: n small slices would otherwise
	// be n allocations the GC has to trace on the scoring hot path.
	// Pooled backings are carved as two-index slices so the buffer can be
	// recovered from row 0 at recycle time; fresh ones get full-cap rows.
	if !pooled {
		ps = &slab{data: make([]float64, 0, len(vecs)*d.Cfg.ProfileWidth()), rows: make([][]float64, 0, len(vecs))}
	}
	for t, v := range vecs {
		start := len(ps.data)
		ps.data = append(ps.data, v[:featWidth]...)
		if d.Cfg.UseUpdateGates {
			ps.data = append(ps.data, gz[t]...)
		}
		if d.Cfg.UseResetGates {
			ps.data = append(ps.data, gr[t]...)
		}
		if pooled {
			ps.rows = append(ps.rows, ps.data[start:])
		} else {
			ps.rows = append(ps.rows, ps.data[start:len(ps.data):len(ps.data)])
		}
	}
	return ps.rows
}

// ContextProfiles computes per-packet context profiles for a connection
// on the serial GRU kernel — part of the serial oracle (see Detector).
func (d *Detector) ContextProfiles(c *flow.Connection) [][]float64 {
	return d.contextProfiles(d.Profile.Vectorize(c), nil)
}

// stack concatenates every StackLength consecutive profiles in a sliding
// window (n−t+1 windows, §3.3(d)); it is the serial oracle of
// stackPooled. Connections shorter than the stack length yield a single
// window left-padded by replicating the first profile: replicated
// profiles stay on the benign feature manifold, whereas zero blocks would
// be out-of-distribution by construction and make every short connection
// look adversarial.
func (d *Detector) stack(profs [][]float64) [][]float64 {
	t := d.Cfg.StackLength
	if t <= 1 {
		return profs
	}
	if len(profs) == 0 {
		return nil
	}
	width := len(profs[0])
	if len(profs) < t {
		win := make([]float64, 0, t*width)
		for pad := 0; pad < t-len(profs); pad++ {
			win = append(win, profs[0]...)
		}
		for _, p := range profs {
			win = append(win, p...)
		}
		return [][]float64{win}
	}
	n := len(profs) - t + 1
	out := make([][]float64, 0, n)
	// One backing array for every window, carved into full-cap slices —
	// the windows are the scoring path's dominant allocation.
	backing := make([]float64, 0, n*t*width)
	for i := 0; i+t <= len(profs); i++ {
		start := len(backing)
		for _, p := range profs[i : i+t] {
			backing = append(backing, p...)
		}
		out = append(out, backing[start:len(backing):len(backing)])
	}
	return out
}

// StackedProfiles returns the sliding-window stacked profiles of a
// connection — the serial oracle of StackedProfilesBatched.
func (d *Detector) StackedProfiles(c *flow.Connection) [][]float64 {
	return d.stack(d.ContextProfiles(c))
}

// stackPooled is stack over a pooled slab, for the batched scoring path:
// windows are carved as two-index slices and their row headers come from
// the slab too, so RecycleStacked can recover both from the result. Values
// are identical to stack.
func (d *Detector) stackPooled(profs [][]float64, t int) [][]float64 {
	width := len(profs[0])
	if len(profs) < t {
		ws := getSlab(&d.windows, t*width, 1)
		for pad := 0; pad < t-len(profs); pad++ {
			ws.data = append(ws.data, profs[0]...)
		}
		for _, p := range profs {
			ws.data = append(ws.data, p...)
		}
		return append(ws.rows, ws.data)
	}
	n := len(profs) - t + 1
	ws := getSlab(&d.windows, n*t*width, n)
	for i := 0; i+t <= len(profs); i++ {
		start := len(ws.data)
		for _, p := range profs[i : i+t] {
			ws.data = append(ws.data, p...)
		}
		ws.rows = append(ws.rows, ws.data[start:])
	}
	return ws.rows
}

// StackedProfilesBatched is StackedProfiles through the batched GRU kernel
// (nn.ForwardGatesBatchPooled) — the stage-(b) half of the batched scoring path.
// Output is bit-identical to StackedProfiles, but the returned windows —
// backing and row headers both — are carved from a pooled buffer: hand them
// back via RecycleStacked once they have been scored, and do not touch them
// afterwards. The feature vectors and (when stacking) the context profiles
// never leave this function; their slabs go back to the pool before it
// returns, since each stage copies its rows into the next one's.
func (d *Detector) StackedProfilesBatched(c *flow.Connection) [][]float64 {
	n := c.Len()
	if n == 0 {
		return nil
	}
	fs := getSlab(&d.scratch, n*features.NumPacket, n)
	vecs := d.Profile.VectorizeInto(c, fs.data[:n*features.NumPacket], fs.rows[:n])
	// Without stacking the profiles are the windows, so their slab is a
	// result; otherwise it is one more intermediate.
	t := d.Cfg.StackLength
	pool := &d.scratch
	if t <= 1 {
		pool = &d.windows
	}
	ps := getSlab(pool, n*d.Cfg.ProfileWidth(), n)
	profs := d.contextProfiles(vecs, &ps)
	d.scratch.put(fs)
	if t <= 1 {
		// The profiles are the windows; their buffer is recycled by
		// RecycleStacked, not here.
		return profs
	}
	wins := d.stackPooled(profs, t)
	d.scratch.put(ps)
	return wins
}

// RecycleStacked returns the pooled buffer behind a StackedProfilesBatched
// result — the whole result, not a sub-slice of it — for reuse. The windows
// must not be read after the call. Nil/empty results are no-ops.
func (d *Detector) RecycleStacked(wins [][]float64) {
	if len(wins) == 0 {
		return
	}
	d.windows.put(slab{data: wins[0][:0], rows: wins})
}

// WindowErrors runs the autoencoder over every stacked profile and returns
// the per-window L1 reconstruction errors — the serial oracle of the
// batched pair (backend.WindowErrors on a CLAP backend).
func (d *Detector) WindowErrors(c *flow.Connection) []float64 {
	return d.AE.Errors(d.StackedProfiles(c))
}

// Score is the verification result for one connection.
type Score struct {
	// Adversarial is the localize-and-estimate adversarial score: the mean
	// reconstruction error over ScoreWindow windows centred on the peak.
	Adversarial float64
	// PeakWindow is the index of the stacked profile with the maximum
	// reconstruction error (the localization anchor).
	PeakWindow int
	// Errors holds the raw per-window reconstruction errors (Figure 6's
	// series).
	Errors []float64
}

// Score runs stage (d) on a connection through the serial oracle chain;
// production scoring summarises the batched series with ScoreFromErrors.
func (d *Detector) Score(c *flow.Connection) Score {
	return d.ScoreFromErrors(d.WindowErrors(c))
}

// ScoreFromErrors summarises a connection's window errors into a Score —
// stage (d) without re-running the inference pipeline.
func (d *Detector) ScoreFromErrors(errs []float64) Score {
	if len(errs) == 0 {
		return Score{PeakWindow: -1}
	}
	peak := 0
	for i, e := range errs {
		if e > errs[peak] {
			peak = i
		}
	}
	w := d.Cfg.ScoreWindow
	if w <= 0 {
		w = 5
	}
	lo := peak - w/2
	hi := peak + w/2 + 1
	if lo < 0 {
		lo = 0
	}
	if hi > len(errs) {
		hi = len(errs)
	}
	var sum float64
	for _, e := range errs[lo:hi] {
		sum += e
	}
	return Score{Adversarial: sum / float64(hi-lo), PeakWindow: peak, Errors: errs}
}

// windowCoversPacket reports whether stacked-profile window w includes
// packet index p for a connection of n packets.
func (d *Detector) windowCoversPacket(w, p, n int) bool {
	t := d.Cfg.StackLength
	if n < t {
		return true // single padded window covers the whole train
	}
	return p >= w && p < w+t
}

// TopWindows ranks a window-error series and returns the indices of the
// topN highest-error windows, best first (stable insertion sort, ties
// broken by window order) — CLAP's forensic localization (§3.3(d)), and
// the single ranking implementation behind the pipeline and the
// evaluation's Top-N hit rates.
func TopWindows(errs []float64, topN int) []int {
	if len(errs) == 0 {
		return nil
	}
	idx := make([]int, len(errs))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ { // insertion sort by error desc (small n)
		for j := i; j > 0 && errs[idx[j]] > errs[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	if topN < len(idx) {
		idx = idx[:topN]
	}
	return idx
}

// LocalizationHitErrors implements the paper's Top-N hit criterion on
// precomputed window errors: do the N highest-error context profiles
// intersect the actual adversarial packets?
func (d *Detector) LocalizationHitErrors(c *flow.Connection, errs []float64, topN int) bool {
	if !c.IsAdversarial() {
		return false
	}
	for _, w := range TopWindows(errs, topN) {
		for _, a := range c.AdvIdx {
			if d.windowCoversPacket(w, a, c.Len()) {
				return true
			}
		}
	}
	return false
}

// RNNAccuracyConn evaluates stage (a) per label class over one connection —
// the unit engine.RNNAccuracy fans out to regenerate Table 5. It returns
// hit and total counts per class.
func (d *Detector) RNNAccuracyConn(c *flow.Connection) (hits, totals [tcpstate.NumClasses]int) {
	vecs := d.Profile.Vectorize(c)
	if len(vecs) == 0 {
		return hits, totals
	}
	pred := d.RNN.Predict(features.RNNInputs(vecs))
	ls := tcpstate.Labels(c, d.Cfg.Endhost)
	for i, l := range ls {
		totals[l.Class()]++
		if pred[i] == l.Class() {
			hits[l.Class()]++
		}
	}
	return hits, totals
}

// String summarises the detector.
func (d *Detector) String() string {
	return fmt.Sprintf("CLAP{profile=%d pkts, rnn=%d/%d/%d, ae=%v, stack=%d}",
		d.Profile.Fitted, d.RNN.In, d.RNN.Hidden, d.RNN.Classes, d.Cfg.AESizes(), d.Cfg.StackLength)
}
