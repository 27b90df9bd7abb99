package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"clap"
	"clap/internal/backend"
	"clap/internal/nn"
	"clap/internal/obs"
)

// cascadeStatusOf samples a tenant's serving cascade's escalation
// accounting, or a zero (absent) sample when a single-stage backend is
// live.
func cascadeStatusOf(hot *backend.Hot) cascadeSample {
	cc, ok := hot.Current().(*backend.Cascade)
	if !ok {
		return cascadeSample{}
	}
	evaluated, escalated := cc.EscalationCounts()
	return cascadeSample{present: true, evaluated: evaluated, escalated: escalated}
}

// Handler returns the ops API. Endpoints (see DESIGN.md §7 and §11):
//
//	GET  /healthz      liveness + uptime + model tag
//	GET  /metrics      Prometheus text exposition
//	GET  /v1/tenants   configured tenants with their serving state
//	GET  /v1/flagged   recent flagged connections (?n= caps the count)
//	GET  /v1/summary   totals, per-source accounting, model + threshold
//	GET  /v1/threshold current operating threshold
//	PUT  /v1/threshold adjust it: {"threshold": 0.08}
//	GET  /v1/drift     live-vs-reference drift statistics
//	POST /v1/reload    hot model reload: {"path": "..."} plus optional
//	                   atomic recalibration: {"calibration": "benign.pcap"
//	                   | "live", "fpr": 0.01}
//	GET  /v1/trace     recent verdict provenance records (?n= caps the
//	                   count; 404 unless tracing is armed)
//	GET  /v1/explain   one connection's retained deep trace: ?key= the
//	                   connection 4-tuple (404 unless tracing is armed)
//
// /v1/flagged, /v1/summary, /v1/threshold, /v1/drift, /v1/reload,
// /v1/trace and /v1/explain accept ?tenant=NAME to scope to one tenant;
// unscoped requests resolve to the default tenant (except /v1/flagged and
// /v1/trace, whose unscoped views merge every tenant's ring).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/tenants", s.handleTenants)
	mux.HandleFunc("/v1/flagged", s.handleFlagged)
	mux.HandleFunc("/v1/summary", s.handleSummary)
	mux.HandleFunc("/v1/threshold", s.handleThreshold)
	mux.HandleFunc("/v1/drift", s.handleDrift)
	mux.HandleFunc("/v1/reload", s.handleReload)
	mux.HandleFunc("/v1/trace", s.handleTrace)
	mux.HandleFunc("/v1/explain", s.handleExplain)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// tenantParam resolves the request's ?tenant= scope (absent: the default
// tenant). On an unknown name it writes a 404 and returns ok=false.
func (s *Server) tenantParam(w http.ResponseWriter, r *http.Request) (*tenantState, bool) {
	name := r.URL.Query().Get("tenant")
	t, ok := s.tenantByName(name)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown tenant %q", name)
		return nil, false
	}
	return t, true
}

// scope names t in a JSON body under the one surface rule (tenantKey)
// and reports whether it did.
func (s *Server) scope(body map[string]any, t *tenantState) bool {
	name := s.tenantKey(t)
	if name != "" {
		body["tenant"] = name
	}
	return name != ""
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	body := map[string]any{
		"status":         "ok",
		"version":        clap.Version,
		"kernel":         nn.Kernel(),
		"uptime_seconds": time.Since(s.metrics.start).Seconds(),
		"model":          s.tenants[0].Hot.Tag(),
		"generation":     s.tenants[0].Hot.Generation(),
		"scored":         s.Scored(),
	}
	if s.tenantKey(s.tenants[0]) != "" {
		body["tenants"] = len(s.tenants)
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := s.streamOrNil()
	if st == nil {
		httpError(w, http.StatusServiceUnavailable, "not started")
		return
	}
	tenants := make([]tenantSample, len(s.tenants))
	for i, t := range s.tenants {
		tenants[i] = tenantSample{
			name:       t.Name,
			tag:        t.Hot.Tag(),
			generation: t.Hot.Generation(),
			threshold:  t.Threshold(),
			inFlight:   t.InFlight(),
			delivered:  t.Delivered.Load(),
			shed:       t.Shed.Load(),
			counts:     t.counts(),
			stages:     t.stageHist,
		}
		if t.Monitor != nil {
			ds := t.Monitor.Status(t.Threshold())
			tenants[i].drift = &ds
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writeProm(w, len(s.queue), cap(s.queue), st.InFlight(), st.BatchFill(),
		cascadeStatusOf(s.tenants[0].Hot), s.stats, tenants, s.multiTenant())
}

func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.streamOrNil() == nil {
		httpError(w, http.StatusServiceUnavailable, "not started")
		return
	}
	t, ok := s.tenantParam(w, r)
	if !ok {
		return
	}
	if t.Monitor == nil {
		httpError(w, http.StatusNotFound, "drift monitoring disabled")
		return
	}
	ds := t.Monitor.Status(t.Threshold())
	body := map[string]any{
		"drift":        ds,
		"alerts_total": t.DriftAlerts.Load(),
		"model": map[string]any{
			"tag":        t.Hot.Tag(),
			"generation": t.Hot.Generation(),
		},
	}
	s.scope(body, t)
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleFlagged(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			httpError(w, http.StatusBadRequest, "bad n=%q", q)
			return
		}
		n = v
	}
	// Unscoped: the merged, timestamp-ordered view across every
	// tenant's bounded ring. Scoped: one tenant's ring and counter.
	if name := r.URL.Query().Get("tenant"); name != "" {
		t, ok := s.tenantByName(name)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown tenant %q", name)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"tenant":        t.Name,
			"flagged":       lastN(t.flagged.Snapshot(), n),
			"total_flagged": t.Flagged.Load(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"flagged":       s.Flagged(n),
		"total_flagged": s.totals().flagged,
	})
}

// sourceSummary is one source's accounting in /v1/summary.
type sourceSummary struct {
	Name      string `json:"name"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	Skipped   uint64 `json:"skipped"`
	Done      bool   `json:"done"`
}

func sourceSummaries(stats []*srcCounters) []sourceSummary {
	srcs := make([]sourceSummary, 0, len(stats))
	for _, st := range stats {
		srcs = append(srcs, sourceSummary{
			Name:      st.name,
			Delivered: st.delivered.Load(),
			Dropped:   st.dropped.Load(),
			Skipped:   st.skipped.Load(),
			Done:      st.done.Load(),
		})
	}
	return srcs
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := s.streamOrNil()
	if st == nil {
		httpError(w, http.StatusServiceUnavailable, "not started")
		return
	}
	t, ok := s.tenantParam(w, r)
	if !ok {
		return
	}
	// The default tenant's view is the whole daemon's (the sums over every
	// tenant); a named tenant's view is scoped to its own accounting.
	c, srcs := s.totals(), s.stats
	if t != s.tenants[0] {
		c, srcs = t.counts(), t.srcs
	}
	summary := map[string]any{
		"scored":             c.scored,
		"packets":            c.packets,
		"flagged":            c.flagged,
		"reloads":            c.reloads,
		"threshold":          t.Threshold(),
		"batch_fill":         st.BatchFill(),
		"packets_per_second": s.metrics.windowRate(),
		"queue_depth":        len(s.queue),
		"queue_capacity":     cap(s.queue),
		"model": map[string]any{
			"tag":        t.Hot.Tag(),
			"describe":   t.Hot.Describe(),
			"generation": t.Hot.Generation(),
		},
		"sources":        sourceSummaries(srcs),
		"uptime_seconds": time.Since(s.metrics.start).Seconds(),
	}
	if s.scope(summary, t) {
		summary["shed"] = t.Shed.Load()
		summary["in_flight"] = t.InFlight()
	}
	if cc, ok := t.Hot.Current().(*backend.Cascade); ok {
		s1, s2 := cc.Stages()
		evaluated, escalated := cc.EscalationCounts()
		frac := 0.0
		if evaluated > 0 {
			frac = float64(escalated) / float64(evaluated)
		}
		cas := map[string]any{
			"stage1":              s1.Tag(),
			"stage2":              s2.Tag(),
			"escalate_fpr":        cc.EscalateFPR(),
			"evaluated":           evaluated,
			"escalated":           escalated,
			"escalation_fraction": frac,
		}
		if esc, set := cc.Escalation(); set {
			cas["escalation_threshold"] = esc
		}
		summary["cascade"] = cas
	}
	writeJSON(w, http.StatusOK, summary)
}

func (s *Server) handleThreshold(w http.ResponseWriter, r *http.Request) {
	if s.streamOrNil() == nil {
		httpError(w, http.StatusServiceUnavailable, "not started")
		return
	}
	t, ok := s.tenantParam(w, r)
	if !ok {
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, map[string]float64{"threshold": t.Threshold()})
	case http.MethodPut:
		var body struct {
			Threshold *float64 `json:"threshold"`
		}
		dec := json.NewDecoder(r.Body)
		if err := dec.Decode(&body); err != nil || body.Threshold == nil {
			httpError(w, http.StatusBadRequest, `want {"threshold": <number>}`)
			return
		}
		// A concatenated second value ({"threshold":1}{"threshold":99})
		// would otherwise be silently accepted with only the first applied.
		if dec.More() {
			httpError(w, http.StatusBadRequest, "request body must be a single JSON object")
			return
		}
		if err := s.SetThreshold(t.Name, *body.Threshold); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]float64{"threshold": t.Threshold()})
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or PUT")
	}
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	t, ok := s.tenantParam(w, r)
	if !ok {
		return
	}
	var body ReloadRequest
	if r.ContentLength != 0 {
		dec := json.NewDecoder(r.Body)
		if err := dec.Decode(&body); err != nil {
			httpError(w, http.StatusBadRequest, `want {"path": "...", "calibration": "benign.pcap"|"live", "fpr": 0.01} or an empty body`)
			return
		}
		if dec.More() {
			httpError(w, http.StatusBadRequest, "request body must be a single JSON object")
			return
		}
	}
	if body.FPR != 0 && !(body.FPR > 0 && body.FPR < 1) {
		httpError(w, http.StatusBadRequest, "fpr %v must be in (0, 1)", body.FPR)
		return
	}
	res, err := s.reload(t, body)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	out := map[string]any{
		"old":               res.Old,
		"new":               res.New,
		"recalibrated":      res.Recalibrated,
		"calibration_conns": res.CalibrationConns,
	}
	s.scope(out, t)
	writeJSON(w, http.StatusOK, out)
}

// tenantInfo is one tenant's entry in /v1/tenants.
type tenantInfo struct {
	Name      string          `json:"name"`
	Default   bool            `json:"default,omitempty"`
	Model     ReloadInfo      `json:"model"`
	Quota     tenantQuotaInfo `json:"quota"`
	Scored    uint64          `json:"scored"`
	Flagged   uint64          `json:"flagged"`
	Delivered uint64          `json:"delivered"`
	Shed      uint64          `json:"shed"`
	Reloads   uint64          `json:"reloads"`
	InFlight  int             `json:"in_flight"`
	Sources   []string        `json:"sources,omitempty"`
	Drift     *DriftStatus    `json:"drift,omitempty"`
}

type tenantQuotaInfo struct {
	MaxInFlight int     `json:"max_in_flight"`
	Rate        float64 `json:"rate"`
	Burst       int     `json:"burst"`
	Unlimited   bool    `json:"unlimited"`
}

// handleTrace serves the retained decision rings: one tenant's when
// scoped with ?tenant=, or every tenant's merged by stream sequence
// (global scoring order) when unscoped. ?n= caps the count to the most
// recent records. 404 while tracing is disarmed, so clients can probe.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.cfg.TraceSample <= 0 {
		httpError(w, http.StatusNotFound, "tracing disabled (start with -trace-sample > 0)")
		return
	}
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			httpError(w, http.StatusBadRequest, "bad n=%q", q)
			return
		}
		n = v
	}
	if name := r.URL.Query().Get("tenant"); name != "" {
		t, ok := s.tenantByName(name)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown tenant %q", name)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"tenant":      t.Name,
			"decisions":   lastN(t.tracer.Decisions(), n),
			"deep_traces": t.tracer.TraceCount(),
		})
		return
	}
	var out []obs.Decision
	deep := 0
	for _, t := range s.tenants {
		out = append(out, t.tracer.Decisions()...)
		deep += t.tracer.TraceCount()
	}
	// Seq is the shared stream's submission counter, so the merged view
	// reads in true global scoring order.
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	out = lastN(out, n)
	if out == nil {
		out = []obs.Decision{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"decisions":   out,
		"deep_traces": deep,
	})
}

// handleExplain reconstructs one connection's "which windows misbehaved"
// view from its retained deep trace — the full per-window error series
// plus localization, with the provenance that produced it — without
// re-scoring anything. Traces are tenant-scoped: an unscoped request
// searches the default tenant, ?tenant= selects another.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.cfg.TraceSample <= 0 {
		httpError(w, http.StatusNotFound, "tracing disabled (start with -trace-sample > 0)")
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		httpError(w, http.StatusBadRequest, "want ?key=<connection key>")
		return
	}
	t, ok := s.tenantParam(w, r)
	if !ok {
		return
	}
	tr, ok := t.tracer.Explain(key)
	if !ok {
		httpError(w, http.StatusNotFound, "no retained trace for key %q (rotated out, never sampled, or another tenant's)", key)
		return
	}
	body := map[string]any{"trace": tr}
	s.scope(body, t)
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	out := make([]tenantInfo, 0, len(s.tenants))
	for _, t := range s.tenants {
		info := tenantInfo{
			Name:    t.Name,
			Default: t.Name == DefaultTenant,
			Model: ReloadInfo{
				Tag:        t.Hot.Tag(),
				Describe:   t.Hot.Describe(),
				Generation: t.Hot.Generation(),
				Threshold:  t.Threshold(),
			},
			Quota: tenantQuotaInfo{
				MaxInFlight: t.Quota.MaxInFlight,
				Rate:        t.Quota.Rate,
				Burst:       t.Quota.Burst,
				Unlimited:   t.Quota.Unlimited(),
			},
			Scored:    t.Scored.Load(),
			Flagged:   t.Flagged.Load(),
			Delivered: t.Delivered.Load(),
			Shed:      t.Shed.Load(),
			Reloads:   t.Reloads.Load(),
			InFlight:  t.InFlight(),
		}
		for _, src := range t.srcs {
			info.Sources = append(info.Sources, src.name)
		}
		if t.Monitor != nil {
			ds := t.Monitor.Status(t.Threshold())
			info.Drift = &ds
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": out})
}
