package clap

import (
	"errors"
	"fmt"
	"math"
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
//	        clap.WithThresholdFPR(0.01, clap.PCAPFile("benign.pcap")),
//	        clap.WithTopN(5),
//	)
//	summary, _ := p.Run(clap.PCAPFile("suspect.pcap"), clap.NewTextReport(os.Stdout, false))
//
// Scores produced through a Pipeline are bit-identical to the backend's
// serial scoring path at any worker or shard count: every backend scores
// through the batched pair, and the engine pools windows across
// connections into micro-batches of engine.DefaultBatch, each one
// matrix-matrix inference pass — the wall clock changes, never the bits.
type Pipeline struct {
	backend Backend
	eng     *Engine

	workers, shards int

	threshold   float64
	fpr         float64
	calibration Source
	cal         *Calibration

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
// implement BatchScorer.
func WithBackend(b Backend) PipelineOption { return func(p *Pipeline) { p.backend = b } }

// WithCascade selects a tiered cascade backend: cheap screens every
// connection, expensive re-scores the suspicious tail (bit-identically to
// running it alone), and at most escalateFPR of benign traffic escalates
// once calibrated (combine with WithThresholdFPR so one benign corpus
// calibrates both the escalation and the operating threshold). Both
// stages must be trained; invalid pairings are rejected by NewPipeline.
func WithCascade(cheap, expensive Backend, escalateFPR float64) PipelineOption {
	return func(p *Pipeline) {
		c, err := backend.NewCascade(cheap, expensive, escalateFPR)
		if err != nil {
			if p.optErr == nil {
				p.optErr = fmt.Errorf("clap: WithCascade: %w", err)
			}
			return
		}
		p.backend = c
	}
}

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

// WithThreshold sets a fixed adversarial-score threshold. 0 (the default)
// means score-only: nothing is flagged. Non-finite (NaN, ±Inf) or negative
// thresholds are rejected by NewPipeline — +Inf in particular would
// silently disable flagging forever while looking like a configured
// threshold.
func WithThreshold(th float64) PipelineOption {
	return func(p *Pipeline) {
		if err := validThreshold("WithThreshold", th); err != nil {
			if p.optErr == nil { // first invalid option wins, like fail()
				p.optErr = err
			}
			return
		}
		p.threshold = th
	}
}

// validThreshold is the single gate every operating threshold passes
// through — options, live SetThreshold, and (through those) the
// /v1/threshold PUT and the CLI -threshold flags.
func validThreshold(who string, th float64) error {
	if math.IsNaN(th) || math.IsInf(th, 0) || th < 0 {
		return fmt.Errorf("clap: %s(%v): threshold must be finite and >= 0", who, th)
	}
	return nil
}

// WithThresholdFPR calibrates the threshold at Run (or NewStream) time:
// the calibration source is scored with the pipeline's backend and the
// threshold is picked to keep the false-positive rate on it at or below
// fpr (the deployment knob of §3.3(d)). Overrides WithThreshold. fpr must
// lie in (0, 1) — 0 would flag nothing and 1 everything — and the
// calibration source must be non-nil; NewPipeline rejects both.
func WithThresholdFPR(fpr float64, calibration Source) PipelineOption {
	return func(p *Pipeline) {
		if !(fpr > 0 && fpr < 1) { // the negation also catches NaN
			p.fail("clap: WithThresholdFPR(%v): target FPR must be in (0, 1)", fpr)
			return
		}
		if calibration == nil {
			p.fail("clap: WithThresholdFPR needs a calibration source")
			return
		}
		p.fpr, p.calibration = fpr, calibration
	}
}

// WithCalibration installs a previously derived calibration snapshot
// (Pipeline.Calibrate, or LoadCalibrationFile for one persisted alongside
// the model): the pipeline operates at the snapshot's threshold without
// re-scoring a calibration corpus. The snapshot's backend tag must match
// the pipeline's backend — a threshold is meaningless on another family's
// score scale. Overridden by WithThresholdFPR.
func WithCalibration(cal *Calibration) PipelineOption {
	return func(p *Pipeline) {
		if err := cal.Validate(); err != nil {
			if p.optErr == nil {
				p.optErr = err
			}
			return
		}
		p.cal = cal
		p.threshold = cal.Threshold
	}
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
	if err := backend.Scorable(p.backend); err != nil {
		return nil, fmt.Errorf("clap: %w", err)
	}
	if p.cal != nil && p.cal.Tag != p.backend.Tag() {
		return nil, fmt.Errorf("clap: calibration snapshot is for backend %q, pipeline runs %q", p.cal.Tag, p.backend.Tag())
	}
	p.eng = engine.New(engine.Options{Workers: p.workers, Shards: p.shards})
	return p, nil
}

// Backend returns the pipeline's detection backend.
func (p *Pipeline) Backend() Backend { return p.backend }

// snapshot pins the model one connection is scored with. For a reload-safe
// HotBackend handle this resolves the live model once, so a hot swap can
// never split a single connection's WindowErrors/Summarize pair across two
// models; for plain backends it is the backend itself.
func (p *Pipeline) snapshot() Backend { return backend.Live(p.backend) }

// Engine returns the pipeline's scoring engine (for Source implementations
// and ad-hoc scoring alongside a Run).
func (p *Pipeline) Engine() *Engine { return p.eng }

// Result is one connection's verdict.
type Result struct {
	// Conn is the scored connection.
	Conn *Connection
	// Score is the backend's scalar adversarial score.
	Score float64
	// Flagged reports Score >= threshold (never set in score-only mode).
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
	// Threshold is the operating threshold used (0 in score-only mode,
	// unless ThresholdSet says otherwise).
	Threshold float64
	// ThresholdSet reports that an operating threshold was genuinely in
	// force — fixed, calibrated, or snapshot-installed — so a calibrated
	// threshold of exactly 0 is distinguishable from score-only mode
	// instead of overloading the value.
	ThresholdSet bool
	// Flagged counts results over the threshold.
	Flagged int
	// Skipped counts records the source could not decode (e.g. truncated
	// or non-TCP pcap records).
	Skipped int
	// CalibrationConns and CalibrationSkipped report the calibration
	// source's corpus when WithThresholdFPR was used.
	CalibrationConns   int
	CalibrationSkipped int
	// WindowSpan is the backend's packets-per-window (for expanding window
	// indices to packet ranges).
	WindowSpan int
}

// calibrate resolves the operating threshold, scoring the calibration
// source with the given model if one was configured. It shares
// CalibrateBackend's single implementation, so WithThresholdFPR fails
// loudly on an empty or unreadable calibration corpus instead of
// deriving a silent +Inf threshold that would disable flagging forever.
func (p *Pipeline) calibrate(b Backend) (th float64, calN, calSkipped int, err error) {
	th = p.threshold
	if p.calibration == nil {
		return th, 0, 0, nil
	}
	cal, err := p.CalibrateBackend(b, p.fpr, p.calibration)
	if err != nil {
		return 0, 0, 0, err
	}
	return cal.Threshold, cal.Conns, cal.Skipped, nil
}

// Calibrate scores the calibration source with the pipeline's current
// model and freezes the outcome into a reusable snapshot: the operating
// threshold at the target FPR plus the benign-score reference
// distribution (the sketch drift monitors compare live traffic against).
// Persist it with SaveCalibrationFile and restore via WithCalibration.
func (p *Pipeline) Calibrate(fpr float64, src Source) (*Calibration, error) {
	return p.CalibrateBackend(p.snapshot(), fpr, src)
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
	// the operating threshold below zero — flagging traffic the verdict
	// stage never examined. Catch the misconfiguration with its cause
	// rather than letting Validate reject the bare negative number.
	if casc != nil && cal.Threshold < 0 {
		return nil, fmt.Errorf(
			"clap: Calibrate(%v): detection FPR target exceeds the cascade's escalation budget %v — the threshold would flag screened connections the verdict stage never scored; raise -escalate-fpr to at least the detection FPR, or lower -fpr",
			fpr, casc.EscalateFPR())
	}
	if err := cal.Validate(); err != nil {
		return nil, err
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
// the model that produced them. thSet marks a threshold genuinely in
// force even when its value is 0 (a calibrated threshold can legitimately
// be exactly 0); without it, th == 0 means score-only.
func (p *Pipeline) resultFor(b Backend, c *Connection, errs []float64, th float64, thSet bool) Result {
	score, peak := b.Summarize(errs)
	r := Result{Conn: c, Score: score, PeakWindow: peak}
	if (th > 0 || thSet) && score >= th {
		r.Flagged = true
	}
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
	// One snapshot for the whole Run: under a hot-swappable backend every
	// connection of a Run is scored by the same model.
	b := p.snapshot()
	th, calN, calSkipped, err := p.calibrate(b)
	if err != nil {
		return nil, err
	}
	conns, skipped, err := src.Connections(p.eng)
	if err != nil {
		return nil, fmt.Errorf("clap: reading source: %w", err)
	}
	// A threshold counts as "in force" when calibrated (WithThresholdFPR),
	// installed from a snapshot (WithCalibration), or fixed positive —
	// either way a value of exactly 0 still flags, it does not silently
	// fall back to score-only.
	thSet := p.calibration != nil || p.cal != nil || th > 0
	sum := &RunSummary{
		Results:            make([]Result, len(conns)),
		Threshold:          th,
		ThresholdSet:       thSet,
		Skipped:            skipped,
		CalibrationConns:   calN,
		CalibrationSkipped: calSkipped,
		WindowSpan:         b.WindowSpan(),
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
		func(c *Connection, b Backend, r *Result, o engine.Outcome) { *r = p.resultFor(b, c, o.Errs, th, thSet) },
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
// in submission order. The operating threshold is live-adjustable
// (SetThreshold), and under a reload-safe HotBackend each connection is
// scored wholly by whichever model is current at its pickup — the serving
// substrate for clap-serve.
type PipelineStream struct {
	inner     *engine.StreamOf[verdict]
	threshold atomic.Uint64 // math.Float64bits

	// pair is the backend when it is a reload-safe handle. While it
	// carries a threshold, scoring pins model and threshold in ONE atomic
	// load and SetThreshold/Threshold route through it — so an atomic
	// recalibration (SwapPair) can never judge a connection with a crossed
	// (model, threshold) pairing.
	pair *HotBackend

	// resolve, when set (NewStreamResolved), picks the handle for EACH
	// connection — the owning tenant's, so one shared stream scores every
	// tenant's traffic while each verdict pins its own tenant's pair. A
	// nil return falls back to the stream's own pair/threshold.
	resolve func(*Connection) *HotBackend
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

// NewStream opens the pipeline in streaming mode. Threshold calibration
// (if configured) runs now, before the first Submit; emit then receives
// every submitted connection's Result in submission order on a single
// goroutine. Optional hooks observe per-stage latencies. Close the stream
// to drain it.
func (p *Pipeline) NewStream(emit func(Result), hooks ...StreamHooks) (*PipelineStream, error) {
	return p.newStream(nil, emit, hooks)
}

// NewStreamResolved is NewStream with per-connection pair resolution:
// resolve picks the reload-safe handle each connection's verdict pins
// its (model, threshold) from — the multi-tenant serving substrate,
// where connections from many tenants ride ONE stream (keeping the
// batched engine's micro-batches full across tenants) while each is
// judged by its own tenant's atomically-published pair. resolve runs on
// pool workers and must be safe for concurrent use; returning nil falls
// back to the pipeline backend's own handle, and Threshold/SetThreshold
// keep addressing that fallback handle (the default tenant).
func (p *Pipeline) NewStreamResolved(resolve func(*Connection) *HotBackend, emit func(Result), hooks ...StreamHooks) (*PipelineStream, error) {
	if resolve == nil {
		return nil, errors.New("clap: NewStreamResolved needs a resolver (use NewStream)")
	}
	return p.newStream(resolve, emit, hooks)
}

func (p *Pipeline) newStream(resolve func(*Connection) *HotBackend, emit func(Result), hooks []StreamHooks) (*PipelineStream, error) {
	open := p.snapshot()
	th, _, _, err := p.calibrate(open)
	if err != nil {
		return nil, err
	}
	s := &PipelineStream{resolve: resolve}
	s.pair, _ = p.backend.(*HotBackend)
	s.threshold.Store(math.Float64bits(th))
	var h StreamHooks
	if len(hooks) > 0 {
		h = hooks[0]
	}
	s.inner = engine.NewStreamOf(p.eng, open,
		func(c *Connection) (Backend, verdict) { return s.start(p, c) },
		func(c *Connection, b Backend, v *verdict, o engine.Outcome) { v.r = p.finish(b, c, v, o) },
		func(_ *Connection, v verdict) { emit(v.r) }, h)
	return s, nil
}

// start pins the (model, threshold, generation) a streamed connection is
// judged by. On a provenance-armed stream it also starts the verdict's
// decision record right here, on the worker that pinned the pair — the
// same view no concurrent reload can split.
func (s *PipelineStream) start(p *Pipeline, c *Connection) (Backend, verdict) {
	b, th, gen := s.pin(p, c)
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
	// Streams keep the historical threshold-0 = score-only contract:
	// SetThreshold(0) reverts to score-only, so thSet stays false here.
	r := p.resultFor(b, c, o.Errs, v.th, false)
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

// pin resolves the (model, threshold, generation) a connection is judged
// with, in one atomic load: from the connection's resolved handle (the
// owning tenant's, under NewStreamResolved; score-only while it has no
// threshold), else from the stream's own handle when it carries a
// threshold, otherwise the model snapshot plus the stream's own threshold
// at generation 0.
func (s *PipelineStream) pin(p *Pipeline, c *Connection) (Backend, float64, uint64) {
	if s.resolve != nil {
		if h := s.resolve(c); h != nil {
			b, th, gen, hasTh := h.CurrentPairGen()
			if !hasTh {
				th = 0
			}
			return b, th, gen
		}
	}
	if s.pair != nil {
		if b, th, gen, hasTh := s.pair.CurrentPairGen(); hasTh {
			return b, th, gen
		}
	}
	return p.snapshot(), math.Float64frombits(s.threshold.Load()), 0
}

// Threshold reports the stream's current operating threshold (the pair
// handle's, when the backend carries one).
func (s *PipelineStream) Threshold() float64 {
	if s.pair != nil {
		if _, th, ok := s.pair.CurrentPair(); ok {
			return th
		}
	}
	return math.Float64frombits(s.threshold.Load())
}

// SetThreshold adjusts the operating threshold live — the /v1/threshold
// knob of the serving layer. Connections already scored keep their
// verdicts; connections picked up after the store see the new value. th
// must be finite and >= 0 (0 reverts to score-only); NaN and ±Inf are
// rejected like everywhere else a threshold enters. Under a pair handle
// the update installs through it, keeping (model, threshold) atomic.
func (s *PipelineStream) SetThreshold(th float64) error {
	if err := validThreshold("SetThreshold", th); err != nil {
		return err
	}
	if s.pair != nil {
		return s.pair.SetThreshold(th)
	}
	s.threshold.Store(math.Float64bits(th))
	return nil
}

// InFlight reports how many submitted connections await scoring or emit.
func (s *PipelineStream) InFlight() int { return s.inner.InFlight() }

// Submit queues one connection for scoring; results arrive at emit in
// submission order. Not safe for concurrent Submit calls.
func (s *PipelineStream) Submit(c *Connection) { s.inner.Submit(c) }

// Close drains the stream: every submitted connection is scored and
// emitted before Close returns.
func (s *PipelineStream) Close() { s.inner.Close() }
