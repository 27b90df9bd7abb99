package clap

import (
	"errors"
	"fmt"
	"sync/atomic"

	"clap/internal/backend"
	"clap/internal/calib"
	"clap/internal/core"
	"clap/internal/engine"
	"clap/internal/obs"
)

// Pipeline is the backend-agnostic deployment unit: a Source feeds
// connections, any registered Backend scores them through the sharded
// parallel engine, and Sinks render the results. The same pipeline serves
// the online-detector and forensic modes of §3.2 for CLAP, Baseline #1,
// the cascade, or any future backend — swap WithBackend and nothing else
// changes.
//
//	b, _ := clap.LoadBackendFile("clap.model")
//	p, _ := clap.NewPipeline(
//	        clap.WithBackend(b),
//	        clap.WithThreshold(0.08),
//	        clap.WithTopN(5),
//	)
//	summary, _ := p.Run(clap.PCAPFile("suspect.pcap"), clap.NewTextReport(os.Stdout, false))
//
// The operating threshold lives in one place: the pipeline's HotBackend
// pair (model, threshold), which NewPipeline makes around a plain backend
// and uses as it is when given one. A threshold is a finite number > 0,
// or 0 for none (score-only); a result is flagged when th > 0 and its
// score >= th. Run pins the pair once for the whole run and a stream once
// per connection, so a threshold installed on the pair (SetThreshold,
// SwapPair) applies to both alike.
//
// Scores produced through a Pipeline are bit-identical to the backend's
// serial scoring path at any worker or shard count: every backend scores
// through the batched pair, and the engine pools windows across
// connections into micro-batches of engine.DefaultBatch, each one
// matrix-matrix inference pass — the wall clock changes, never the bits.
type Pipeline struct {
	backend Backend     // as WithBackend gave it
	hot     *HotBackend // the (model, threshold) pair every verdict pins
	eng     *Engine

	workers, shards int

	// install puts the threshold of WithThreshold or WithCalibration into
	// hot at NewPipeline.
	install func(*HotBackend) error

	topN       int
	keepErrors bool
	prov       bool

	optErr error // first invalid option, surfaced by NewPipeline
}

// PipelineOption configures a Pipeline.
type PipelineOption func(*Pipeline)

// fail records the first invalid option; NewPipeline returns it.
func (p *Pipeline) fail(format string, args ...any) {
	if p.optErr == nil {
		p.optErr = fmt.Errorf(format, args...)
	}
}

// WithBackend selects the detection backend. Required; the backend must be
// trained (or freshly loaded) before Run, and a leaf backend must
// implement BatchScorer. A HotBackend is used as it is: thresholds and
// model swaps installed on it reach the pipeline's verdicts. A cascade is
// built with NewCascade.
func WithBackend(b Backend) PipelineOption { return func(p *Pipeline) { p.backend = b } }

// WithWorkers sets the scoring worker count. Omit the option to size it to
// the machine; explicit non-positive counts are rejected by NewPipeline.
func WithWorkers(n int) PipelineOption {
	return func(p *Pipeline) {
		if n <= 0 {
			p.fail("clap: WithWorkers(%d): worker count must be positive (omit the option to auto-size)", n)
			return
		}
		p.workers = n
	}
}

// WithShards sets the assembly shard count. Omit the option to mirror the
// worker count; explicit non-positive counts are rejected by NewPipeline.
func WithShards(n int) PipelineOption {
	return func(p *Pipeline) {
		if n <= 0 {
			p.fail("clap: WithShards(%d): shard count must be positive (omit the option to mirror workers)", n)
			return
		}
		p.shards = n
	}
}

// WithThreshold installs a fixed adversarial-score threshold into the
// pipeline's pair. 0 means none (score-only: nothing is flagged), which is
// also what a pipeline without the option does, unless its HotBackend
// already carries a threshold. NewPipeline rejects a non-finite (NaN,
// ±Inf) or negative threshold — +Inf in particular would silently disable
// flagging forever while looking like a configured one — and rejects the
// option beside WithCalibration.
func WithThreshold(th float64) PipelineOption {
	return func(p *Pipeline) {
		p.setThreshold("WithThreshold", func(h *HotBackend) error {
			if err := h.SetThreshold(th); err != nil {
				return fmt.Errorf("clap: WithThreshold: %w", err)
			}
			return nil
		})
	}
}

// WithCalibration installs the threshold of a calibration snapshot
// (Pipeline.Calibrate, or LoadCalibrationFile for one persisted alongside
// the model) into the pipeline's pair, without re-scoring a calibration
// corpus. The snapshot's backend tag must match the pipeline's backend —
// a threshold is meaningless on another family's score scale — and
// NewPipeline rejects the option beside WithThreshold.
func WithCalibration(cal *Calibration) PipelineOption {
	return func(p *Pipeline) {
		if err := cal.Validate(); err != nil {
			if p.optErr == nil {
				p.optErr = err
			}
			return
		}
		p.setThreshold("WithCalibration", func(h *HotBackend) error {
			if cal.Tag != h.Tag() {
				return fmt.Errorf("clap: calibration snapshot is for backend %q, pipeline runs %q", cal.Tag, h.Tag())
			}
			return h.SetThreshold(cal.Threshold)
		})
	}
}

// setThreshold records the option that installs the pipeline's
// threshold. A second one is refused: the threshold would otherwise
// depend on the order of the options.
func (p *Pipeline) setThreshold(who string, install func(*HotBackend) error) {
	if p.install != nil {
		p.fail("clap: %s: WithThreshold or WithCalibration already sets the threshold; give one of the two", who)
		return
	}
	p.install = install
}

// WithTopN sets how many highest-error windows each result localizes
// (default 5). 0 disables localization; negative counts are rejected by
// NewPipeline.
func WithTopN(n int) PipelineOption {
	return func(p *Pipeline) {
		if n < 0 {
			p.fail("clap: WithTopN(%d): window count must be >= 0", n)
			return
		}
		p.topN = n
	}
}

// WithWindowErrors keeps the full per-window error series on every Result
// (Figure 6's series). By default only flagged results retain it, so large
// captures do not pin every connection's series for the whole run.
func WithWindowErrors(keep bool) PipelineOption { return func(p *Pipeline) { p.keepErrors = keep } }

// WithProvenance arms per-verdict provenance capture on pipeline streams:
// every streamed Result carries an obs.Decision binding the verdict to the
// (model tag, Hot generation, threshold) that judged it — read in the SAME
// atomic load that pins the scoring pair — plus the cascade stage, batch
// placement, and the connection's ingest attribution. Head-sampled
// connections (Connection.TraceSampled) additionally retain their full
// error series even when unflagged. Off by default; batch Runs ignore it.
func WithProvenance(on bool) PipelineOption { return func(p *Pipeline) { p.prov = on } }

// NewPipeline builds a pipeline over a backend. It fails without one,
// fails on an untrained one or a leaf without the batched pair
// (BatchScorer) — scoring through either would otherwise panic on a pool
// goroutine — and fails on any invalid option value rather than silently
// coercing it.
func NewPipeline(opts ...PipelineOption) (*Pipeline, error) {
	p := &Pipeline{topN: 5}
	for _, o := range opts {
		o(p)
	}
	if p.optErr != nil {
		return nil, p.optErr
	}
	if p.backend == nil {
		return nil, errors.New("clap: pipeline needs a backend (WithBackend)")
	}
	if !p.backend.Trained() {
		return nil, fmt.Errorf("clap: backend %q is not trained (Train it or load a model first)", p.backend.Tag())
	}
	hot, ok := p.backend.(*HotBackend)
	if !ok {
		var err error
		if hot, err = backend.NewHot(p.backend); err != nil {
			return nil, fmt.Errorf("clap: %w", err)
		}
	}
	if p.install != nil {
		if err := p.install(hot); err != nil {
			return nil, err
		}
	}
	p.hot = hot
	p.eng = engine.New(engine.Options{Workers: p.workers, Shards: p.shards})
	return p, nil
}

// Engine returns the pipeline's scoring engine (for Source implementations
// and ad-hoc scoring alongside a Run).
func (p *Pipeline) Engine() *Engine { return p.eng }

// Result is one connection's verdict.
type Result struct {
	// Conn is the scored connection.
	Conn *Connection
	// Score is the backend's scalar adversarial score.
	Score float64
	// Flagged reports threshold > 0 and Score >= threshold.
	Flagged bool
	// PeakWindow is the index of the highest-error window (-1 when the
	// backend produced no windows).
	PeakWindow int
	// TopWindows holds the indices of the highest-error windows, best
	// first (up to the pipeline's TopN) — CLAP's forensic localization.
	// Computed for flagged results, and for every result under
	// WithWindowErrors(true); nil otherwise, so score-only batch runs do
	// not pay for ranking they never read.
	TopWindows []int
	// Errors is the per-window anomaly series. Retained for flagged
	// results, and for every result under WithWindowErrors(true) — and,
	// on provenance-armed streams, for head-sampled connections.
	Errors []float64
	// Prov is the verdict's provenance record, populated only on pipeline
	// streams built under WithProvenance(true); nil otherwise. The stream
	// fills the scoring-side fields on the pool worker; the consumer
	// completes Seq, the stage latencies and the timestamp on the emit
	// goroutine before publishing the record anywhere.
	Prov *obs.Decision
}

// RunSummary reports one Run.
type RunSummary struct {
	// Results holds every connection's verdict in capture order.
	Results []Result
	// Threshold is the operating threshold the run pinned (0: none,
	// score-only).
	Threshold float64
	// Flagged counts results over the threshold.
	Flagged int
	// Skipped counts records the source could not decode (e.g. truncated
	// or non-TCP pcap records).
	Skipped int
	// WindowSpan is the backend's packets-per-window (for expanding window
	// indices to packet ranges).
	WindowSpan int
}

// Calibrate scores the calibration source with the pipeline's current
// model and freezes the outcome into a reusable snapshot: the operating
// threshold at the target FPR plus the benign-score reference
// distribution (the sketch drift monitors compare live traffic against).
// It installs nothing: put cal.Threshold into a HotBackend with
// SetThreshold, or build a pipeline WithCalibration(cal). Persist it with
// SaveCalibrationFile.
func (p *Pipeline) Calibrate(fpr float64, src Source) (*Calibration, error) {
	return p.CalibrateBackend(p.hot.Current(), fpr, src)
}

// CalibrateBackend is Calibrate against an explicit model — the serving
// layer calibrates an incoming model with it before atomically swapping
// the (model, threshold) pair in.
func (p *Pipeline) CalibrateBackend(b Backend, fpr float64, src Source) (*Calibration, error) {
	if !(fpr > 0 && fpr < 1) {
		return nil, fmt.Errorf("clap: Calibrate(%v): target FPR must be in (0, 1)", fpr)
	}
	if src == nil {
		return nil, errors.New("clap: Calibrate needs a calibration source")
	}
	if b == nil || !b.Trained() {
		return nil, errors.New("clap: Calibrate needs a trained backend")
	}
	benign, skipped, err := src.Connections(p.eng)
	if err != nil {
		return nil, fmt.Errorf("clap: reading calibration source: %w", err)
	}
	if len(benign) == 0 {
		return nil, errors.New("clap: calibration source produced no connections")
	}
	// A cascade calibrates its escalation threshold from the same corpus
	// first, so the end-to-end scoring below sees the routing that will
	// serve.
	casc, _ := b.(*backend.Cascade)
	if casc != nil {
		if err := casc.CalibrateStages(benign, p.eng.ScoresBatched); err != nil {
			return nil, fmt.Errorf("clap: calibrating stages: %w", err)
		}
	}
	scores := p.eng.ScoresBatched(b, benign)
	ref := calib.NewSketch(0, 0)
	for _, s := range scores {
		ref.Add(s)
	}
	cal := &Calibration{
		Tag:       b.Tag(),
		FPR:       fpr,
		Threshold: ThresholdAtFPR(scores, fpr),
		Conns:     len(benign),
		Skipped:   skipped,
		Ref:       ref,
	}
	// A cascade's screened connections score as negative margins, so a
	// detection FPR target looser than the escalation budget would land
	// the operating threshold at or below zero — flagging traffic the
	// verdict stage never examined, or nothing at all. Catch the
	// misconfiguration with its cause rather than letting Validate reject
	// the bare number.
	if casc != nil && cal.Threshold <= 0 {
		return nil, fmt.Errorf(
			"clap: Calibrate(%v): detection FPR target exceeds the cascade's escalation budget %v — the threshold would flag screened connections the verdict stage never scored; raise -escalate-fpr to at least the detection FPR, or lower -fpr",
			fpr, casc.EscalateFPR())
	}
	if err := cal.Validate(); err != nil {
		return nil, fmt.Errorf("clap: Calibrate(%v): %w", fpr, err)
	}
	// Calibration scored the corpus through the backend; scrub any
	// escalation counters it inflated so serving metrics reflect served
	// traffic only.
	if casc != nil {
		casc.ResetEscalationCounts()
	}
	return cal, nil
}

// resultFor scores one connection from its precomputed window errors under
// the model that produced them, judged at threshold th (0: none).
func (p *Pipeline) resultFor(b Backend, c *Connection, errs []float64, th float64) Result {
	score, peak := b.Summarize(errs)
	r := Result{Conn: c, Score: score, PeakWindow: peak}
	r.Flagged = th > 0 && score >= th
	if r.Flagged || p.keepErrors {
		if p.topN > 0 {
			r.TopWindows = core.TopWindows(errs, p.topN)
		}
		r.Errors = errs
	}
	return r
}

// Run reads the source and scores every connection through the engine's
// ordered stream: each result goes to every sink as soon as its connection
// and every earlier one are scored, in capture order, while later ones are
// still scoring; Finish then runs once per sink, in sink order. Sinks are
// optional: forensic callers can work off the returned summary alone. A
// sink error stops Run submitting connections; Run drains what is in
// flight, emitting none of it, and returns the error.
func (p *Pipeline) Run(src Source, sinks ...Sink) (*RunSummary, error) {
	// One pin for the whole Run: every connection of a Run is judged by
	// the same (model, threshold) pair, whatever is swapped in meanwhile.
	b, th := p.hot.CurrentPair()
	conns, skipped, err := src.Connections(p.eng)
	if err != nil {
		return nil, fmt.Errorf("clap: reading source: %w", err)
	}
	sum := &RunSummary{
		Results:    make([]Result, len(conns)),
		Threshold:  th,
		Skipped:    skipped,
		WindowSpan: b.WindowSpan(),
	}
	// The emitter owns sum and the run state until Close returns; failed
	// is how it tells the submitting loop to stop.
	var st struct {
		emitted int
		sinkErr error
		failed  atomic.Bool
	}
	s := engine.NewStreamOf(p.eng, b,
		func(*Connection) (Backend, Result) { return b, Result{} },
		func(c *Connection, b Backend, r *Result, o engine.Outcome) { *r = p.resultFor(b, c, o.Errs, th) },
		func(_ *Connection, r Result) {
			if st.sinkErr != nil {
				return
			}
			if r.Flagged {
				sum.Flagged++
			}
			sum.Results[st.emitted] = r
			st.emitted++
			for _, sk := range sinks {
				if st.sinkErr = sk.Emit(r); st.sinkErr != nil {
					st.failed.Store(true)
					return
				}
			}
		}, engine.StreamHooks{})
	for _, c := range conns {
		if st.failed.Load() {
			break
		}
		s.Submit(c)
	}
	s.Close()
	if st.sinkErr != nil {
		return nil, fmt.Errorf("clap: sink: %w", st.sinkErr)
	}
	for _, sk := range sinks {
		if err := sk.Finish(sum); err != nil {
			return nil, fmt.Errorf("clap: sink finish: %w", err)
		}
	}
	return sum, nil
}

// PipelineStream is the pipeline's online mode: connections are submitted
// as they close, scored concurrently by the engine, and emitted strictly
// in submission order. Each connection is judged wholly by the (model,
// threshold) pair its resolved HotBackend holds at its pickup, so a model
// swap or a threshold installed on that pair applies from the next
// connection on — the serving substrate for clap-serve.
type PipelineStream struct {
	inner *engine.StreamOf[verdict]
}

// verdict is a streamed connection's Result in the making: the threshold
// pinned together with its model, then the Result itself (with its
// provenance record started at pin time on provenance-armed streams).
type verdict struct {
	th float64
	r  Result
}

// StreamHooks instruments a pipeline stream with per-stage latencies; see
// engine.StreamHooks.
type StreamHooks = engine.StreamHooks

// StreamStats is one streamed connection's stage latency measurement.
type StreamStats = engine.StreamStats

// NewStream opens the pipeline in streaming mode: emit receives every
// submitted connection's Result in submission order on a single
// goroutine, and optional hooks observe per-stage latencies. resolve
// picks the pair each connection pins its (model, threshold) from in one
// atomic load; nil means the pipeline's own. A resolver serves many
// tenants on ONE stream (keeping the batched engine's micro-batches full
// across tenants) while each connection is judged by its own tenant's
// pair; it runs on pool workers, must be safe for concurrent use, and
// must not return nil. Close the stream to drain it.
func (p *Pipeline) NewStream(resolve func(*Connection) *HotBackend, emit func(Result), hooks ...StreamHooks) *PipelineStream {
	if resolve == nil {
		own := p.hot
		resolve = func(*Connection) *HotBackend { return own }
	}
	var h StreamHooks
	if len(hooks) > 0 {
		h = hooks[0]
	}
	return &PipelineStream{inner: engine.NewStreamOf(p.eng, p.hot.Current(),
		func(c *Connection) (Backend, verdict) { return p.start(resolve(c), c) },
		func(c *Connection, b Backend, v *verdict, o engine.Outcome) { v.r = p.finish(b, c, v, o) },
		func(_ *Connection, v verdict) { emit(v.r) }, h)}
}

// start pins the (model, threshold, generation) a streamed connection is
// judged by from its pair h, in one atomic load. On a provenance-armed
// stream it also starts the verdict's decision record right here, on the
// worker that pinned the pair — the same view no concurrent reload can
// split.
func (p *Pipeline) start(h *HotBackend, c *Connection) (Backend, verdict) {
	b, th, gen := h.CurrentPairGen()
	v := verdict{th: th}
	if p.prov {
		v.r.Prov = &obs.Decision{
			Key:        c.Key.String(),
			Tenant:     c.Tenant,
			Source:     c.Source,
			Attack:     c.AttackName,
			Model:      b.Tag(),
			Generation: gen,
			Threshold:  th,
			Sampled:    c.TraceSampled,
			WindowSpan: b.WindowSpan(),
		}
	}
	return b, v
}

// finish judges a streamed connection from its batcher outcome under the
// pinned model and threshold, and completes the scoring side of its
// decision record: the cascade stage that settled it, and the micro-batch
// that scored its last window.
func (p *Pipeline) finish(b Backend, c *Connection, v *verdict, o engine.Outcome) Result {
	r := p.resultFor(b, c, o.Errs, v.th)
	d := v.r.Prov
	if d == nil {
		return r
	}
	if _, routed := b.(*backend.Cascade); routed {
		d.Stage, d.Stage1Margin = obs.StageScreened, o.Stage1Margin
		if o.Escalated {
			d.Stage = obs.StageEscalated
		}
	}
	d.BatchID, d.BatchFill = o.BatchID, o.BatchFill
	d.Score, d.Flagged = r.Score, r.Flagged
	if c.TraceSampled && r.Errors == nil {
		// Head-sampled deep trace: retain the series (and localization)
		// even for unflagged verdicts, so /v1/explain can reconstruct
		// them without re-scoring.
		if p.topN > 0 {
			r.TopWindows = core.TopWindows(o.Errs, p.topN)
		}
		r.Errors = o.Errs
	}
	r.Prov = d
	return r
}

// BatchFill reports the mean occupancy of the micro-batches this stream
// has run: 1 means every batch was full, lower values mean part-filled
// batches. 0 before any batched scoring.
func (s *PipelineStream) BatchFill() float64 { return s.inner.BatchFill() }

// InFlight reports how many submitted connections await scoring or emit.
func (s *PipelineStream) InFlight() int { return s.inner.InFlight() }

// Submit queues one connection for scoring; results arrive at emit in
// submission order. Not safe for concurrent Submit calls.
func (s *PipelineStream) Submit(c *Connection) { s.inner.Submit(c) }

// Close drains the stream: every submitted connection is scored and
// emitted before Close returns.
func (s *PipelineStream) Close() { s.inner.Close() }
