// Package serve is the long-running online detection service: the layer
// that turns the clap library into a deployable daemon running beside a
// DPI middlebox (the paper's Figure 3 deployment, kept alive indefinitely).
//
// A Server wires three moving parts together:
//
//   - ingest: any number of live ServeSources (tailed pcap files, pcap
//     pipes, the trafficgen soak mode) deliver connections into one
//     bounded queue with explicit backpressure or load-shedding and
//     per-source drop/skip accounting;
//   - scoring: a single pump goroutine feeds the queue into
//     Pipeline.NewStream, so any registered backend scores connections
//     concurrently while results emerge in submission order;
//   - ops: a stdlib net/http surface exposes health, Prometheus metrics,
//     flagged-connection and summary JSON, live threshold adjustment, and
//     hot model reload (POST /v1/reload or SIGHUP in the CLI) through an
//     atomic backend swap that never mixes models within one connection.
//
// One Server can serve many TENANTS — named source groups, each with its
// own model handle, threshold, calibration + drift monitor, flagged
// ring, and admission quota — over the single shared scoring stream:
// connections carry their tenant through the stream, each verdict pins
// the owning tenant's atomically-published (model, threshold) pair, and
// cross-tenant micro-batching keeps the batched engine full even when
// each tenant alone is lightly loaded. Config's top-level fields define
// the implicit "default" tenant; Config.Tenants adds the rest. A
// single-tenant daemon is a tenant list of length one, served by the
// same code, and tenant-shaped keys and labels appear on its surface
// only when more than one tenant is configured. The ops API scopes by
// ?tenant= and lists tenants at /v1/tenants.
//
// See DESIGN.md §7 for the architecture diagram and endpoint table, and
// §11 for multi-tenant serving.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"clap"
	"clap/internal/backend"
	"clap/internal/calib"
	"clap/internal/obs"
	"clap/internal/tenant"
)

// DefaultTenant names the implicit tenant configured by Config's
// top-level fields; unscoped API requests resolve to it.
const DefaultTenant = "default"

// Config assembles a Server.
type Config struct {
	// Backend is the initial trained model (required). It is wrapped in a
	// reload-safe handle internally; pass any registered backend.
	Backend clap.Backend
	// ModelPath is the default model file for reloads (optional; reload
	// requests may name an explicit path instead).
	ModelPath string

	// Addr is the ops API listen address (e.g. "127.0.0.1:8080").
	// Empty means no listener — tests drive Handler directly.
	Addr string

	// Workers sizes the scoring engine (0: all cores).
	Workers int

	// Threshold fixes the operating threshold; Calibration+FPR derive it
	// instead when Calibration is non-nil. Both may later be adjusted
	// live via /v1/threshold.
	Threshold   float64
	FPR         float64
	Calibration clap.Source

	// CalibrationSnapshot installs a pre-derived calibration (threshold +
	// benign-score reference) when no Calibration source is given.
	CalibrationSnapshot *clap.Calibration
	// CalibrationFile persists the calibration snapshot
	// (conventionally "<model>.calib"): a Start-time calibration and every
	// recalibrating reload save it there, and a restart with no
	// Calibration source loads it back, so the drift monitor keeps its
	// reference distribution across restarts. A snapshot whose backend
	// tag does not match the serving model is ignored with a log line.
	// When Threshold is set explicitly, a loaded snapshot contributes
	// only its reference distribution — never its threshold, and its FPR
	// target is dropped with it (the drift monitor's FPR rules would
	// otherwise alert forever against a target the fixed threshold
	// opted out of; quantile-shift monitoring remains active).
	CalibrationFile string

	// Quota bounds the default tenant's admission (zero: unlimited); see
	// TenantConfig.Quota.
	Quota tenant.Quota

	// Tenants configures additional named tenants served alongside the
	// default one. Every tenant shares the Server's scoring stream,
	// queue, and engine sizing; each owns its model handle, threshold,
	// calibration, drift monitor, flagged ring, and quota. Names must be
	// unique and must not be "default" (that one is implicit).
	Tenants []TenantConfig

	// Drift monitoring compares rolling windows of live scores against
	// the frozen calibration reference (quantile shift + estimated
	// operating FPR) — the clap_serve_drift / clap_serve_operating_fpr
	// gauges and the /v1/drift endpoint. DriftWindow is the scores per
	// rolling window (0: 256; negative: disable monitoring), DriftWindows
	// the retained window count (0: 4), DriftMaxShift the relative
	// quantile-shift alert level (0: 0.5; negative: rule off) and
	// DriftFPRFactor the allowed operating-FPR deviation factor (0: 3;
	// negative: rule off). Every tenant gets its own monitor with these
	// settings.
	DriftWindow    int
	DriftWindows   int
	DriftMaxShift  float64
	DriftFPRFactor float64
	// OnDriftAlert observes every tenant's drift alerts, fired once per
	// excursion on the emit goroutine — the hook the CLI uses to push
	// drift lines into the alert log. tenant is the tenant's connection
	// tag, as in Result.Conn.Tenant: "" for the default tenant.
	OnDriftAlert func(tenant string, st DriftStatus)

	// TopN windows are localized per flagged connection. 0 keeps the
	// default of 5; a negative value disables localization (the Go
	// zero value cannot mean "disable" and "default" at once).
	TopN int

	// QueueDepth bounds the ingest queue (default 256). The queue is
	// shared by every tenant; per-tenant quotas shed BEFORE it, so one
	// tenant's overload never evicts another's deliveries.
	QueueDepth int
	// DropWhenFull selects load-shedding: a full queue drops (and counts)
	// new connections instead of blocking the source. Default false =
	// backpressure.
	DropWhenFull bool

	// FlaggedRing caps how many recent flagged results /v1/flagged serves
	// PER TENANT (default 256) — a chatty tenant can only evict its own
	// alerts.
	FlaggedRing int

	// TraceSample arms the provenance and tracing layer: every verdict
	// carries a provenance record (served at /v1/trace and attached to
	// flagged connections), and every TraceSample'th delivery per tenant —
	// plus every flagged connection — retains a deep trace (the full
	// per-window error series and localization, served at /v1/explain).
	// 0 (the default) disables tracing entirely: no provenance is
	// captured, and /metrics, /v1/flagged and the scoring path stay
	// byte-identical to the untraced daemon. 1 deep-traces everything.
	TraceSample int
	// TraceRing caps each tenant's retained decisions and deep traces
	// (default 256). Ignored while TraceSample is 0.
	TraceRing int

	// OnResult, if set, observes every scored result on the emit
	// goroutine — the hook the CLI uses for alert sinks and tests use for
	// score capture. Result.Conn.Tenant names the owning tenant ("" for
	// the default one).
	OnResult func(clap.Result)

	// Logf receives operational log lines (nil: silent).
	Logf func(format string, args ...any)
}

// TenantConfig configures one named tenant. The fields mirror Config's
// calibration surface; each resolves independently at Start with the
// same precedence (Calibration source > CalibrationSnapshot >
// CalibrationFile restore > fixed Threshold).
type TenantConfig struct {
	// Name identifies the tenant in the API, metrics labels, and CLI
	// flags (required; "default" is reserved).
	Name string
	// Backend is the tenant's trained model (required).
	Backend clap.Backend
	// ModelPath is the tenant's default reload source (optional).
	ModelPath string
	// Threshold / FPR / Calibration / CalibrationSnapshot /
	// CalibrationFile behave exactly as Config's, scoped to this tenant.
	Threshold           float64
	FPR                 float64
	Calibration         clap.Source
	CalibrationSnapshot *clap.Calibration
	CalibrationFile     string
	// Quota bounds the tenant's admission: max in-flight connections
	// plus a deliveries/sec token bucket. The zero value is unlimited.
	// Refusals are counted as the tenant's shed and the source's drops;
	// they never touch the shared queue.
	Quota tenant.Quota
}

// FlaggedConn is one flagged connection as served by /v1/flagged.
type FlaggedConn struct {
	Key        string    `json:"key"`
	Score      float64   `json:"score"`
	PeakWindow int       `json:"peak_window"`
	TopWindows []int     `json:"top_windows,omitempty"`
	Attack     string    `json:"attack,omitempty"`
	Time       time.Time `json:"time"`
	// Tenant names the owning tenant while more than one is configured
	// (omitted otherwise; see Server.tenantKey).
	Tenant string `json:"tenant,omitempty"`
	// Provenance is the verdict's full decision record, attached when
	// tracing is armed (Config.TraceSample > 0; omitted otherwise, keeping
	// the untraced JSON shape unchanged). It pins the localization and the
	// (model, generation, threshold) binding even after the flagged ring
	// wraps — the deep trace behind it stays recoverable at /v1/explain.
	Provenance *obs.Decision `json:"provenance,omitempty"`
}

// DriftStatus is one drift evaluation, as served by /v1/drift and handed
// to OnDriftAlert.
type DriftStatus = calib.Status

// Server is the clap-serve daemon: ingest, scoring stream, ops API.
type Server struct {
	cfg  Config
	logf func(string, ...any)

	pipe   *clap.Pipeline
	stream *clap.PipelineStream

	// tenants holds every tenant's serving state, default first;
	// byName indexes them ("" is resolved to the default separately).
	tenants []*tenantState
	byName  map[string]*tenantState

	queue   chan queued
	sources []serveSource
	stats   []*srcCounters

	metrics *metrics

	// lastResult carries one result from emit to the observe hook that
	// follows it; both run on the stream's single emitter goroutine, so no
	// synchronization is needed. observe consumes and clears it.
	lastResult clap.Result

	httpLn  net.Listener
	httpSrv *http.Server

	cancel  context.CancelFunc
	stopped chan struct{} // closed when the pump has drained
	ingest  sync.WaitGroup
	started bool
	mu      sync.Mutex
}

// tenantState composes a tenant's core state with its serving-layer
// attachments: the calibration spec resolved at Start, the flagged
// ring, and the tenant's source accounting.
type tenantState struct {
	*tenant.Tenant
	spec    TenantConfig
	flagged *tenant.Ring[FlaggedConn]
	srcs    []*srcCounters
	// tracer holds the tenant's decision ring and deep-trace store
	// (nil while tracing is disabled).
	tracer *obs.Tracer
	// stageHist are the tenant's queue/score/emit latency histograms;
	// the daemon-wide clap_serve_stage_latency_seconds is their sum.
	stageHist [3]*obs.Histogram
}

type serveSource struct {
	src   clap.ServeSource
	stats *srcCounters
	owner *tenantState
}

type queued struct {
	conn  *clap.Connection
	stats *srcCounters
	// at stamps the enqueue time, only when tracing is armed — the pump
	// turns it into the shared-queue ingest-wait histogram.
	at time.Time
}

// New builds a Server (not yet started) around a trained backend.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("serve: config needs a trained Backend")
	}
	// Sizes are counts: zero takes the documented default, and a negative
	// value is a mistake to report rather than another way to say zero.
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Workers", cfg.Workers},
		{"QueueDepth", cfg.QueueDepth},
		{"FlaggedRing", cfg.FlaggedRing},
		{"TraceSample", cfg.TraceSample},
		{"TraceRing", cfg.TraceRing},
	} {
		if f.v < 0 {
			return nil, fmt.Errorf("serve: %s %d must be >= 0", f.name, f.v)
		}
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 256
	}
	if cfg.FlaggedRing == 0 {
		cfg.FlaggedRing = 256
	}
	if cfg.TraceRing == 0 {
		cfg.TraceRing = 256
	}
	switch {
	case cfg.TopN == 0:
		cfg.TopN = 5
	case cfg.TopN < 0:
		cfg.TopN = 0 // Pipeline's "localization off"
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	s := &Server{
		cfg:     cfg,
		logf:    logf,
		queue:   make(chan queued, cfg.QueueDepth),
		metrics: newMetrics(),
		byName:  make(map[string]*tenantState),
		stopped: make(chan struct{}),
	}

	// The default tenant is Config's top-level surface, normalized into
	// the same TenantConfig shape every named tenant uses.
	def, err := s.addTenant(TenantConfig{
		Name:                DefaultTenant,
		Backend:             cfg.Backend,
		ModelPath:           cfg.ModelPath,
		Threshold:           cfg.Threshold,
		FPR:                 cfg.FPR,
		Calibration:         cfg.Calibration,
		CalibrationSnapshot: cfg.CalibrationSnapshot,
		CalibrationFile:     cfg.CalibrationFile,
		Quota:               cfg.Quota,
	})
	if err != nil {
		return nil, err
	}
	for _, tc := range cfg.Tenants {
		if tc.Name == "" || tc.Name == DefaultTenant {
			return nil, fmt.Errorf("serve: tenant name %q is reserved (the default tenant is configured by the top-level fields)", tc.Name)
		}
		if _, err := s.addTenant(tc); err != nil {
			return nil, err
		}
	}

	opts := []clap.PipelineOption{clap.WithBackend(def.Hot), clap.WithTopN(cfg.TopN)}
	if cfg.TraceSample > 0 {
		opts = append(opts, clap.WithProvenance(true))
		s.metrics.ingestWait = obs.NewHistogram(obs.LatencyBounds)
		s.metrics.batchFill = obs.NewHistogram(obs.RatioBounds)
	}
	if cfg.Workers > 0 {
		opts = append(opts, clap.WithWorkers(cfg.Workers))
	}
	// Thresholds live only in each tenant's hot (model, threshold) pair,
	// installed at Start (resolveCalibration): the stream's resolver pins
	// every connection to its tenant's pair, so the pipeline carries none.
	s.pipe, err = clap.NewPipeline(opts...)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// addTenant validates one tenant's spec and installs its serving state.
func (s *Server) addTenant(tc TenantConfig) (*tenantState, error) {
	who := "config"
	if tc.Name != DefaultTenant {
		who = fmt.Sprintf("tenant %q", tc.Name)
	}
	if _, dup := s.byName[tc.Name]; dup {
		return nil, fmt.Errorf("serve: duplicate tenant %q", tc.Name)
	}
	if tc.Backend == nil {
		return nil, fmt.Errorf("serve: %s needs a trained Backend", who)
	}
	// Reject non-finite thresholds here rather than relying on the
	// pipeline's WithThreshold guard: NaN would not survive the > 0 gate
	// and would silently fall back to score-only mode.
	if tc.Threshold < 0 || math.IsNaN(tc.Threshold) || math.IsInf(tc.Threshold, 0) {
		return nil, fmt.Errorf("serve: %s threshold %v must be finite and >= 0", who, tc.Threshold)
	}
	// The FPR bound is validated here so a bad config fails at
	// construction, not minutes later at Start.
	if tc.Calibration != nil && !(tc.FPR > 0 && tc.FPR < 1) {
		return nil, fmt.Errorf("serve: %s calibration target FPR %v must be in (0, 1)", who, tc.FPR)
	}
	hot, err := backend.NewHot(tc.Backend)
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", who, err)
	}
	var monitor *calib.Monitor
	if s.cfg.DriftWindow >= 0 {
		monitor = calib.NewMonitor(nil, 0, calib.MonitorConfig{
			Window:    s.cfg.DriftWindow,
			Windows:   s.cfg.DriftWindows,
			MaxShift:  s.cfg.DriftMaxShift,
			FPRFactor: s.cfg.DriftFPRFactor,
		})
	}
	core, err := tenant.New(tc.Name, hot, monitor, tc.Quota)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	core.ModelPath = tc.ModelPath
	core.CalibrationFile = tc.CalibrationFile
	core.FPR = tc.FPR
	t := &tenantState{
		Tenant:  core,
		spec:    tc,
		flagged: tenant.NewRing[FlaggedConn](s.cfg.FlaggedRing),
	}
	if s.cfg.TraceSample > 0 {
		t.tracer = obs.NewTracer(s.cfg.TraceRing)
	}
	for i := range t.stageHist {
		t.stageHist[i] = obs.NewHistogram(obs.LatencyBounds)
	}
	s.tenants = append(s.tenants, t)
	s.byName[tc.Name] = t
	return t, nil
}

// multiTenant reports whether any named tenants are configured. The
// surface consults it only through tenantKey (JSON) and /metrics (the
// tenant-labelled series), so the single-tenant rule lives in one place.
func (s *Server) multiTenant() bool { return len(s.tenants) > 1 }

// tenantKey is the one surface rule for JSON: bodies and flagged entries
// name their tenant only while more than one tenant is configured, so
// the single-tenant surface carries no tenant keys. It returns the name
// to carry, or "" to leave the key out.
func (s *Server) tenantKey(t *tenantState) string {
	if !s.multiTenant() {
		return ""
	}
	return t.Name
}

// tenantOf resolves a connection's tenant tag ("": the default tenant).
func (s *Server) tenantOf(name string) *tenantState {
	if t, ok := s.tenantByName(name); ok {
		return t
	}
	return s.tenants[0]
}

// tenantByName resolves an API-facing tenant name ("": default), with
// ok=false for unknown names.
func (s *Server) tenantByName(name string) (*tenantState, bool) {
	if name == "" {
		return s.tenants[0], true
	}
	t, ok := s.byName[name]
	return t, ok
}

// AddSource registers a live source for the default tenant: the ""
// case of AddTenantSource.
func (s *Server) AddSource(src clap.ServeSource) {
	_ = s.AddTenantSource("", src) // "" always resolves: no error
}

// AddTenantSource registers a live source delivering into the named
// tenant ("" is the default tenant). Must be called before Start.
func (s *Server) AddTenantSource(name string, src clap.ServeSource) error {
	t, ok := s.tenantByName(name)
	if !ok {
		return fmt.Errorf("serve: unknown tenant %q", name)
	}
	st := &srcCounters{name: src.Name()}
	if rs, ok := src.(clap.RingStatser); ok {
		st.ring = rs
	}
	s.sources = append(s.sources, serveSource{src: src, stats: st, owner: t})
	s.stats = append(s.stats, st)
	t.srcs = append(t.srcs, st)
	return nil
}

// Start opens the scoring stream (running threshold calibration if
// configured), launches every source's ingest goroutine and the pump, and
// — when cfg.Addr is set — begins serving the ops API. It returns once
// the service is live.
func (s *Server) Start(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("serve: already started")
	}

	for _, t := range s.tenants {
		if err := s.resolveCalibration(t); err != nil {
			return err
		}
	}
	// One shared stream scores every tenant: the resolver pins each
	// connection to its OWN tenant's (model, threshold) pair, so tenants
	// reload and recalibrate independently while their windows share
	// micro-batches.
	s.stream = s.pipe.NewStream(s.resolveHot, s.emit, clap.StreamHooks{Observe: s.observe})
	def := s.tenants[0]
	s.logf("serving %s (threshold %.6f, %d workers, batch %d)",
		def.Hot.Describe(), def.Threshold(), s.pipe.Engine().Workers(), s.pipe.Engine().Batch())
	for _, t := range s.tenants[1:] {
		s.logf("tenant %s: serving %s (threshold %.6f)", t.Name, t.Hot.Describe(), t.Threshold())
	}

	ctx, s.cancel = context.WithCancel(ctx)

	// Ingest: one goroutine per source, all feeding the bounded queue.
	for _, src := range s.sources {
		src := src
		s.ingest.Add(1)
		go func() {
			defer s.ingest.Done()
			skipped, err := src.src.Stream(ctx, s.deliverFunc(ctx, src.stats, src.owner))
			src.stats.skipped.Add(uint64(skipped))
			src.stats.done.Store(true)
			if err != nil {
				s.logf("source %s failed: %v", src.src.Name(), err)
			} else {
				s.logf("source %s finished (%d delivered, %d dropped, %d skipped)",
					src.src.Name(), src.stats.delivered.Load(),
					src.stats.dropped.Load(), src.stats.skipped.Load())
			}
		}()
	}

	// Close the queue once every source is done, so the pump can drain.
	go func() {
		s.ingest.Wait()
		close(s.queue)
	}()

	// Pump: the single Submit goroutine the stream contract requires.
	go func() {
		for q := range s.queue {
			if !q.at.IsZero() {
				s.metrics.ingestWait.Observe(time.Since(q.at).Seconds())
			}
			s.stream.Submit(q.conn)
		}
		s.stream.Close()
		close(s.stopped)
	}()

	if s.cfg.Addr != "" {
		ln, err := net.Listen("tcp", s.cfg.Addr)
		if err != nil {
			s.cancel()
			return fmt.Errorf("serve: listening on %s: %w", s.cfg.Addr, err)
		}
		s.httpLn = ln
		s.httpSrv = &http.Server{Handler: s.Handler()}
		go func() {
			if err := s.httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				s.logf("ops API server: %v", err)
			}
		}()
		s.logf("ops API listening on http://%s", ln.Addr())
	}
	s.started = true
	return nil
}

// resolveHot is the stream's per-connection pair resolver: the owning
// tenant's reload-safe handle. Runs on pool workers; the tenant map is
// immutable after New.
func (s *Server) resolveHot(c *clap.Connection) *clap.HotBackend {
	return s.tenantOf(c.Tenant).Hot
}

// resolveCalibration runs once per tenant at Start: it derives (or
// restores) the tenant's calibration — the operating threshold and the
// drift monitor's frozen reference distribution — and installs the
// threshold into the tenant's hot (model, threshold) pair before the
// first connection is scored. Precedence: an explicit Calibration source
// is scored now; otherwise an explicit CalibrationSnapshot applies;
// otherwise a persisted CalibrationFile from an earlier run restores the
// reference (and the threshold too, unless a fixed Threshold overrides
// it); otherwise only the fixed Threshold (if any) is installed.
func (s *Server) resolveCalibration(t *tenantState) error {
	tc := t.spec
	switch {
	case tc.Calibration != nil:
		cal, err := s.pipe.CalibrateBackend(t.Hot.Current(), tc.FPR, tc.Calibration)
		if err != nil {
			return fmt.Errorf("serve: %scalibrating: %w", t.logPrefix(), err)
		}
		s.logf("%scalibrated threshold %.6f at FPR %g over %d connections",
			t.logPrefix(), cal.Threshold, cal.FPR, cal.Conns)
		if err := t.Hot.SetThreshold(cal.Threshold); err != nil {
			return fmt.Errorf("serve: %sinstalling calibrated threshold: %w", t.logPrefix(), err)
		}
		s.resetMonitor(t, cal)
		s.persistCalibration(t, cal)
		return nil

	case tc.CalibrationSnapshot != nil:
		cal := tc.CalibrationSnapshot
		if err := cal.Validate(); err != nil {
			return fmt.Errorf("serve: %s%w", t.logPrefix(), err)
		}
		if cal.Tag != t.Hot.Tag() {
			return fmt.Errorf("serve: %scalibration snapshot is for backend %q, serving %q", t.logPrefix(), cal.Tag, t.Hot.Tag())
		}
		if err := t.Hot.SetThreshold(cal.Threshold); err != nil {
			return fmt.Errorf("serve: %sinstalling snapshot threshold: %w", t.logPrefix(), err)
		}
		s.resetMonitor(t, cal)
		s.persistCalibration(t, cal)
		s.logf("%sinstalled calibration snapshot: threshold %.6f at FPR %g", t.logPrefix(), cal.Threshold, cal.FPR)
		return nil
	}

	// No explicit calibration. A snapshot persisted by an earlier run
	// restores the drift reference — and the threshold, unless the
	// config fixes one. Restoration is best-effort: a missing, stale or
	// unreadable snapshot degrades to reference-less monitoring with a
	// log line, never a failed start.
	if t.CalibrationFile != "" {
		switch cal, err := clap.LoadCalibrationFile(t.CalibrationFile); {
		case err == nil && cal.Tag != t.Hot.Tag():
			s.logf("%signoring calibration snapshot %s: calibrated for backend %q, serving %q",
				t.logPrefix(), t.CalibrationFile, cal.Tag, t.Hot.Tag())
		case err == nil:
			th := cal.Threshold
			fprTarget := cal.FPR
			if tc.Threshold > 0 {
				// A fixed threshold overrides the snapshot's: the snapshot
				// contributes only its reference distribution, and its FPR
				// target is dropped too — alerting that the operating FPR
				// misses a target the operator explicitly opted out of
				// would ring forever. Quantile-shift monitoring remains.
				th = tc.Threshold
				fprTarget = 0
			}
			if t.Monitor != nil {
				t.Monitor.Reset(cal.Ref, fprTarget)
			}
			if err := t.Hot.SetThreshold(th); err != nil {
				return fmt.Errorf("serve: %sinstalling restored threshold: %w", t.logPrefix(), err)
			}
			s.logf("%srestored calibration snapshot from %s: threshold %.6f at FPR %g (reference of %d scores)",
				t.logPrefix(), t.CalibrationFile, th, cal.FPR, cal.Ref.Count())
			return nil
		case !os.IsNotExist(err):
			s.logf("%scalibration snapshot %s unreadable: %v", t.logPrefix(), t.CalibrationFile, err)
		}
	}
	if tc.Threshold > 0 {
		if err := t.Hot.SetThreshold(tc.Threshold); err != nil {
			return fmt.Errorf("serve: %sinstalling threshold: %w", t.logPrefix(), err)
		}
	}
	return nil
}

// logPrefix tags a tenant's log lines and errors ("" for the default
// tenant, keeping single-tenant output identical to the pre-tenant
// daemon).
func (t *tenantState) logPrefix() string {
	if t.Name == DefaultTenant {
		return ""
	}
	return fmt.Sprintf("tenant %s: ", t.Name)
}

// resetMonitor rebases a tenant's drift monitoring on a new calibration.
// Used by Start's calibration, which runs under s.mu before the stream
// exists (nothing is in flight); the reload path uses rebaseMonitor.
func (s *Server) resetMonitor(t *tenantState, cal *clap.Calibration) {
	if t.Monitor != nil {
		t.Monitor.Reset(cal.Ref, cal.FPR)
	}
}

// rebaseMonitor rebases a tenant's drift monitoring mid-serve: the reset
// and a skip of the tenant's current in-flight count are armed in one
// monitor critical section, so scores from connections still pinned to
// the pre-recalibration (model, threshold) pair — which emit after the
// reset — can never pollute the new reference's first window (across
// model families their old-scale scores would otherwise fire a spurious
// alert right after the fix). The in-flight count is read before the
// reset; connections that emit in between land in the discarded old
// state, so the error direction is only ever skipping a few fresh
// scores.
func (s *Server) rebaseMonitor(t *tenantState, cal *clap.Calibration) {
	if t.Monitor == nil {
		return
	}
	t.Monitor.ResetSkipping(cal.Ref, cal.FPR, t.InFlight())
}

// persistCalibration saves a tenant's active calibration snapshot
// alongside its model file (best-effort: serving is never taken down by
// a snapshot write failure).
func (s *Server) persistCalibration(t *tenantState, cal *clap.Calibration) {
	if t.CalibrationFile == "" {
		return
	}
	if err := clap.SaveCalibrationFile(t.CalibrationFile, cal); err != nil {
		s.logf("%spersisting calibration snapshot to %s: %v", t.logPrefix(), t.CalibrationFile, err)
		return
	}
	s.logf("%scalibration snapshot saved to %s", t.logPrefix(), t.CalibrationFile)
}

// OpsAddr reports the ops API's bound address ("" without a listener) —
// useful with Addr ":0".
func (s *Server) OpsAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// deliverFunc builds one source's delivery callback: the owning tenant's
// quota gate, then bounded enqueue with either backpressure (block until
// the pump catches up or shutdown) or load-shedding (count the drop and
// move on). Quota refusals shed BEFORE the shared queue — a tenant over
// its bound spends no shared capacity, so its overload can never starve
// a neighbour's deliveries.
func (s *Server) deliverFunc(ctx context.Context, st *srcCounters, t *tenantState) func(*clap.Connection) {
	return func(c *clap.Connection) {
		if !t.Admit(time.Now()) {
			st.dropped.Add(1)
			return
		}
		if t.Name != DefaultTenant {
			c.Tenant = t.Name
		}
		q := queued{conn: c, stats: st}
		if s.cfg.TraceSample > 0 {
			// Attribution and the head-sampling verdict ride the
			// connection into the shared stream; the enqueue stamp feeds
			// the ingest-wait histogram at the pump.
			c.Source = st.name
			c.TraceSampled = t.SampleTrace(s.cfg.TraceSample)
			q.at = time.Now()
		}
		if s.cfg.DropWhenFull {
			select {
			case s.queue <- q:
				st.delivered.Add(1)
				t.Delivered.Add(1)
			default:
				st.dropped.Add(1)
				t.Shed.Add(1)
				t.Release()
			}
			return
		}
		select {
		case s.queue <- q:
			st.delivered.Add(1)
			t.Delivered.Add(1)
		case <-ctx.Done():
			st.dropped.Add(1)
			t.Shed.Add(1)
			t.Release()
		}
	}
}

// emit consumes ordered results on the stream's emitter goroutine. The
// tenant's counters move in observe, which runs next.
func (s *Server) emit(r clap.Result) {
	s.lastResult = r
	t := s.tenantOf(r.Conn.Tenant)
	t.Release()
	if t.Monitor != nil {
		// Off the hot scoring path: the sketch insert rides the single
		// emit goroutine, not the pool workers. A window rotation that
		// newly trips the drift condition fires the alert hook once.
		if st := t.Monitor.Observe(r.Score, t.Threshold()); st != nil {
			s.driftAlert(t, r.Conn.Tenant, *st)
		}
	}
	// With tracing armed the flagged-ring insert moves to observe, which
	// runs next on this same goroutine — the entry then carries the
	// COMPLETED provenance record (Seq, latencies, timestamp) instead of
	// a half-filled one.
	if r.Flagged && r.Prov == nil {
		t.flagged.Add(s.flaggedEntry(t, r, nil))
	}
	if s.cfg.OnResult != nil {
		s.cfg.OnResult(r)
	}
}

// flaggedEntry builds the /v1/flagged entry of a flagged result; d is its
// completed provenance record, nil while tracing is off.
func (s *Server) flaggedEntry(t *tenantState, r clap.Result, d *obs.Decision) FlaggedConn {
	fc := FlaggedConn{
		Score:      r.Score,
		PeakWindow: r.PeakWindow,
		TopWindows: r.TopWindows,
		Attack:     r.Conn.AttackName,
		Tenant:     s.tenantKey(t),
		Provenance: d,
	}
	if d != nil {
		fc.Key, fc.Time = d.Key, d.Time
	} else {
		fc.Key, fc.Time = r.Conn.Key.String(), time.Now()
	}
	return fc
}

// driftAlert reacts to a tenant's newly tripped drift condition: count
// it, log it, and hand it to the alert hook (the CLI routes it into the
// dedup alert log). tag is the tenant's connection tag.
func (s *Server) driftAlert(t *tenantState, tag string, st DriftStatus) {
	t.DriftAlerts.Add(1)
	s.logf("%sDRIFT ALERT: %s (drift=%.4f, operating FPR %.4f vs target %.4f) — recalibrate via POST /v1/reload {\"calibration\": ...}",
		t.logPrefix(), st.Reason, st.Drift, st.OperatingFPR, st.TargetFPR)
	if s.cfg.OnDriftAlert != nil {
		s.cfg.OnDriftAlert(tag, st)
	}
}

// DriftStatus evaluates the default tenant's drift statistics right now
// (ok=false when drift monitoring is disabled).
func (s *Server) DriftStatus() (DriftStatus, bool) {
	t := s.tenants[0]
	if t.Monitor == nil {
		return DriftStatus{}, false
	}
	return t.Monitor.Status(t.Threshold()), true
}

// observe feeds the stream's stage latencies into the tenant's
// histograms, with tracing armed completes and publishes the
// connection's provenance record, and then counts the connection. It
// runs on the emitter goroutine right after this connection's emit, so
// the verdict recorded there and the latencies land together — a record
// only becomes visible to /v1/trace, /v1/explain and /v1/flagged once it
// is complete, and a reader that sees a connection counted also sees its
// latencies.
func (s *Server) observe(c *clap.Connection, st clap.StreamStats) {
	r := s.lastResult
	s.lastResult = clap.Result{}
	t := s.tenantOf(c.Tenant)
	t.stageHist[stageQueue].Observe(st.QueueWait.Seconds())
	t.stageHist[stageScore].Observe(st.Score.Seconds())
	t.stageHist[stageEmit].Observe(st.EmitWait.Seconds())
	if d := r.Prov; d != nil {
		d.Seq = st.Seq
		d.QueueWaitNS = st.QueueWait.Nanoseconds()
		d.ScoreNS = st.Score.Nanoseconds()
		d.EmitWaitNS = st.EmitWait.Nanoseconds()
		d.Time = time.Now()
		if d.BatchFill > 0 {
			s.metrics.batchFill.Observe(d.BatchFill)
		}
		t.tracer.Record(*d)
		if r.Flagged || d.Sampled {
			t.tracer.RecordTrace(obs.Trace{
				Decision:   *d,
				Errors:     r.Errors,
				TopWindows: r.TopWindows,
				PeakWindow: r.PeakWindow,
			})
		}
		if r.Flagged {
			t.flagged.Add(s.flaggedEntry(t, r, d))
		}
	}
	s.metrics.observeRate(c.Len())
	t.Scored.Add(1)
	t.Packets.Add(uint64(c.Len()))
	if r.Flagged {
		t.Flagged.Add(1)
	}
}

// Flagged returns the most recent flagged connections across every
// tenant, merged oldest-first by flag time and capped at n (n <= 0: all
// retained). Each tenant's ring is bounded independently, so one chatty
// tenant can no longer evict every other tenant's alerts.
func (s *Server) Flagged(n int) []FlaggedConn {
	out := make([]FlaggedConn, 0, len(s.tenants)*4)
	for _, t := range s.tenants {
		out = append(out, t.flagged.Snapshot()...)
	}
	// Stable: equal timestamps keep ring (insertion) order, so the
	// single-tenant view is exactly the ring's.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return lastN(out, n)
}

// lastN caps xs to its n most recent (last) elements; n <= 0 keeps all.
func lastN[T any](xs []T, n int) []T {
	if n > 0 && len(xs) > n {
		return xs[len(xs)-n:]
	}
	return xs
}

// streamOrNil returns the scoring stream, or nil before Start — the ops
// handlers guard on it so a Handler mounted early serves 503 instead of
// panicking.
func (s *Server) streamOrNil() *clap.PipelineStream {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stream
}

// Threshold reports the default tenant's operating threshold (0 while
// none is installed: before Start, or score-only).
func (s *Server) Threshold() float64 { return s.tenants[0].Threshold() }

// SetThreshold adjusts a tenant's live operating threshold ("": the
// default tenant). Before Start it installs the threshold Start then
// keeps, unless the tenant's calibration or fixed Threshold replaces it.
func (s *Server) SetThreshold(name string, th float64) error {
	t, ok := s.tenantByName(name)
	if !ok {
		return fmt.Errorf("serve: unknown tenant %q", name)
	}
	if err := t.Hot.SetThreshold(th); err != nil {
		return err
	}
	s.logf("%sthreshold set to %.6f", t.logPrefix(), th)
	return nil
}

// ReloadInfo describes the models on either side of a reload.
type ReloadInfo struct {
	Tag        string  `json:"tag"`
	Describe   string  `json:"describe"`
	Generation uint64  `json:"generation"`
	Threshold  float64 `json:"threshold"`
}

// ReloadRequest describes one reload: which model file to load and,
// optionally, how to re-derive its operating threshold in the same
// transaction.
type ReloadRequest struct {
	// Path is the model file ("" falls back to the tenant's configured
	// ModelPath — except under Calibration "live" with no path, which
	// keeps the current model and only re-derives its threshold).
	Path string `json:"path"`
	// Calibration selects auto-recalibration: "" keeps the current
	// threshold (the legacy reload-then-PUT flow), "live" derives the
	// threshold from the drift monitor's recent score sketch, and any
	// other value is read as a benign pcap path scored with the incoming
	// model. Either way the new model and its re-derived threshold are
	// published in ONE atomic hot-pair transaction — no connection can
	// ever be judged by a (new model, old threshold) or (old model, new
	// threshold) crossover.
	Calibration string `json:"calibration"`
	// FPR is the recalibration target (0: the monitor's current target,
	// falling back to the serve config's FPR).
	FPR float64 `json:"fpr"`
}

// ReloadResult reports one reload, including the recalibration outcome.
type ReloadResult struct {
	Old, New         ReloadInfo
	Recalibrated     bool
	CalibrationConns int
}

// Reload hot-swaps a tenant's serving model ("": the default tenant) —
// the full /v1/reload contract. The model file may carry any registered
// backend tag (the tagged header picks the decoder); req.Path "" falls
// back to the tenant's ModelPath. The swap is atomic: in-flight
// connections finish on the model that picked them up, later ones score
// on the new model, and a failed load leaves the current model serving.
// Without a req.Calibration source the current threshold is kept; with
// one, the incoming model's threshold is derived first — from a benign
// pcap scored with that model, or from the live score sketch — and model
// and threshold are then published in one hot-pair transaction, the
// drift monitor rebases on the new reference distribution and the
// persisted calibration snapshot (if configured) is rewritten. Tenants
// reload independently: every other tenant's verdicts are untouched.
func (s *Server) Reload(name string, req ReloadRequest) (ReloadResult, error) {
	t, ok := s.tenantByName(name)
	if !ok {
		return ReloadResult{}, fmt.Errorf("serve: unknown tenant %q", name)
	}
	return s.reload(t, req)
}

func (s *Server) reload(t *tenantState, req ReloadRequest) (res ReloadResult, err error) {
	t.ReloadMu.Lock()
	defer t.ReloadMu.Unlock()

	prevB, prevTh := t.Hot.CurrentPair()
	res.Old = ReloadInfo{Tag: prevB.Tag(), Describe: prevB.Describe(), Generation: t.Hot.Generation(), Threshold: prevTh}

	// Resolve the incoming model. "live" recalibration with no explicit
	// path keeps the current model: the recent sketch describes THIS
	// model's score scale, so rebinding it to a freshly loaded file is
	// only sound when the operator names that file deliberately.
	keepModel := req.Path == "" && req.Calibration == "live"
	b := prevB
	path := req.Path
	if !keepModel {
		if path == "" {
			path = t.ModelPath
		}
		if path == "" {
			return res, fmt.Errorf("serve: %sno model path configured for reload", t.logPrefix())
		}
		b, err = clap.LoadBackendFile(path)
		if err != nil {
			return res, fmt.Errorf("serve: reload: %w", err)
		}
		// Stage-2-only reload: with a cascade serving and the incoming file
		// holding a bare backend matching its expensive stage, graft the new
		// model in as stage 2 — the cheap screen, escalation threshold, and
		// escalation counters carry over, so retraining the expensive model
		// never forces retraining the screen.
		if cc, ok := prevB.(*backend.Cascade); ok {
			if _, isCascade := b.(*backend.Cascade); !isCascade {
				if _, s2 := cc.Stages(); b.Tag() == s2.Tag() {
					grafted, gerr := cc.WithStage2(b)
					if gerr != nil {
						return res, fmt.Errorf("serve: reload: grafting stage 2: %w", gerr)
					}
					s.logf("%scascade: grafting %s model from %s as stage 2 (screen and escalation kept)", t.logPrefix(), b.Tag(), path)
					b = grafted
				}
			}
		}
	}

	// Derive the new calibration before anything is published, so a
	// failed calibration leaves the serving state untouched.
	var cal *clap.Calibration
	switch req.Calibration {
	case "":
	case "live":
		if t.Monitor == nil {
			return res, errors.New("serve: live recalibration needs drift monitoring enabled")
		}
		fpr := req.FPR
		if fpr == 0 {
			if fpr = t.Monitor.TargetFPR(); fpr == 0 {
				fpr = t.FPR
			}
		}
		th, live, rerr := t.Monitor.Recalibrate(fpr)
		if rerr != nil {
			return res, fmt.Errorf("serve: reload: %w", rerr)
		}
		cal = &clap.Calibration{Tag: b.Tag(), FPR: fpr, Threshold: th, Conns: int(live.Count()), Ref: live}
	default:
		fpr := req.FPR
		if fpr == 0 {
			fpr = t.FPR
		}
		cal, err = s.pipe.CalibrateBackend(b, fpr, clap.PCAPFile(req.Calibration))
		if err != nil {
			return res, fmt.Errorf("serve: reload: %w", err)
		}
	}

	// Publish. One transaction whichever shape the reload takes: model
	// and threshold move together (SwapPair), or only one of them moves.
	switch {
	case cal == nil:
		if _, err := t.Hot.Swap(b); err != nil {
			return res, fmt.Errorf("serve: reload: %w", err)
		}
	case keepModel:
		if err := t.Hot.SetThreshold(cal.Threshold); err != nil {
			return res, fmt.Errorf("serve: reload: %w", err)
		}
	default:
		if _, err := t.Hot.SwapPair(b, cal.Threshold); err != nil {
			return res, fmt.Errorf("serve: reload: %w", err)
		}
	}
	if cal != nil {
		res.Recalibrated = true
		res.CalibrationConns = cal.Conns
		s.rebaseMonitor(t, cal)
		s.persistCalibration(t, cal)
	}

	if !keepModel {
		t.Reloads.Add(1)
	}
	_, newTh := t.Hot.CurrentPair()
	res.New = ReloadInfo{Tag: b.Tag(), Describe: b.Describe(), Generation: t.Hot.Generation(), Threshold: newTh}
	switch {
	case keepModel:
		s.logf("%srecalibrated in place: threshold %.6f -> %.6f (FPR target %g, %d live scores)",
			t.logPrefix(), res.Old.Threshold, res.New.Threshold, cal.FPR, cal.Conns)
	case res.Recalibrated:
		s.logf("%sreloaded model from %s with calibration %q: %s (th %.6f) -> %s (th %.6f, generation %d)",
			t.logPrefix(), path, req.Calibration, res.Old.Tag, res.Old.Threshold, res.New.Tag, res.New.Threshold, res.New.Generation)
	default:
		s.logf("%sreloaded model from %s: %s -> %s (generation %d)", t.logPrefix(), path, res.Old.Tag, res.New.Tag, res.New.Generation)
	}
	return res, nil
}

// Shutdown stops ingest, drains the queue and the scoring stream (every
// accepted connection is scored and emitted), and closes the ops API. It
// is bounded by ctx; a second call is a no-op.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return errors.New("serve: not started")
	}
	cancel := s.cancel
	s.mu.Unlock()

	cancel() // sources see ctx.Done and return; queue closes after them
	select {
	case <-s.stopped: // pump drained and closed the stream
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			return err
		}
	}
	tot := s.totals()
	s.logf("shutdown complete: %d connections scored, %d flagged", tot.scored, tot.flagged)
	return nil
}

// Scored reports the total connections scored so far, over every tenant.
func (s *Server) Scored() uint64 { return s.totals().scored }

// counts reads the tenant's counters.
func (t *tenantState) counts() counts {
	return counts{
		scored:  t.Scored.Load(),
		packets: t.Packets.Load(),
		flagged: t.Flagged.Load(),
		reloads: t.Reloads.Load(),
		alerts:  t.DriftAlerts.Load(),
	}
}

// totals sums every tenant's counters: the daemon-wide view.
func (s *Server) totals() counts {
	var c counts
	for _, t := range s.tenants {
		c.add(t.counts())
	}
	return c
}
