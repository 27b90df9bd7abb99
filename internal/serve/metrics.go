package serve

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clap"
	"clap/internal/nn"
	"clap/internal/obs"
)

// promLabel escapes one label VALUE for the Prometheus text exposition:
// backslash, double-quote and newline are the three characters the
// format reserves inside quoted label values. Source and tenant names
// are operator-controlled (-tenant flags, source names derived from file
// paths), so a stray " or \n must not corrupt the whole /metrics page.
// Ordinary names pass through byte-identical.
func promLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// metrics is the daemon-wide operational state that has no per-tenant
// twin, exported in Prometheus text format at /metrics beside the sums
// of the tenants' counters and histograms. The packets/s window is the
// only mutex-guarded piece.
type metrics struct {
	start time.Time

	// ingestWait distributes how long deliveries sat in the shared ingest
	// queue before the pump submitted them, and batchFill distributes each
	// verdict's micro-batch occupancy. Both are non-nil only with tracing
	// armed, so the untraced exposition carries no new series.
	ingestWait *obs.Histogram
	batchFill  *obs.Histogram

	// rate is a sliding window of (timestamp, packets) samples maintained
	// by the single emit goroutine; windowRate reads it under the mutex.
	rateMu      sync.Mutex
	rateSamples []rateSample
}

type rateSample struct {
	at   time.Time
	pkts int
}

// stage indices into tenantState.stageHist.
const (
	stageQueue = iota
	stageScore
	stageEmit
)

var stageNames = [3]string{"queue", "score", "emit"}

const rateWindow = 5 * time.Second

func newMetrics() *metrics { return &metrics{start: time.Now()} }

// observeRate adds one scored connection's packets to the packets/s
// window. Called from the single emit goroutine.
func (m *metrics) observeRate(pkts int) {
	now := time.Now()
	m.rateMu.Lock()
	m.rateSamples = append(m.rateSamples, rateSample{at: now, pkts: pkts})
	m.trimRateLocked(now)
	m.rateMu.Unlock()
}

func (m *metrics) trimRateLocked(now time.Time) {
	cutoff := now.Add(-rateWindow)
	i := 0
	for i < len(m.rateSamples) && m.rateSamples[i].at.Before(cutoff) {
		i++
	}
	if i > 0 {
		m.rateSamples = append(m.rateSamples[:0], m.rateSamples[i:]...)
	}
}

// windowRate reports packets per second over the sliding window.
func (m *metrics) windowRate() float64 {
	now := time.Now()
	m.rateMu.Lock()
	defer m.rateMu.Unlock()
	m.trimRateLocked(now)
	total := 0
	for _, s := range m.rateSamples {
		total += s.pkts
	}
	return float64(total) / rateWindow.Seconds()
}

// srcCounters is one ingest source's accounting.
type srcCounters struct {
	name      string
	delivered atomic.Uint64 // connections handed to the queue
	dropped   atomic.Uint64 // connections shed at a full queue
	skipped   atomic.Uint64 // undecodable records reported by the source
	done      atomic.Bool   // the source's Stream returned
	// ring is set for sources backed by a kernel capture ring
	// (AF_PACKET); its counters are sampled at exposition time.
	ring clap.RingStatser
}

// cascadeSample is a cascade backend's escalation accounting at render
// time (present only while a cascade is serving).
type cascadeSample struct {
	present              bool
	evaluated, escalated uint64
}

// counts is one tenant's counters read at render time or — summed over
// every tenant — the daemon's.
type counts struct {
	scored, packets, flagged, reloads, alerts uint64
}

func (c *counts) add(o counts) {
	c.scored += o.scored
	c.packets += o.packets
	c.flagged += o.flagged
	c.reloads += o.reloads
	c.alerts += o.alerts
}

// tenantSample is one tenant's state at render time.
type tenantSample struct {
	name            string
	tag             string
	generation      uint64
	threshold       float64
	inFlight        int
	delivered, shed uint64
	counts
	// drift is the tenant's drift evaluation, nil with monitoring off.
	// Every tenant's monitor shares one configuration, so either every
	// tenant has one or none does.
	drift *DriftStatus
	// stages are the tenant's queue/score/emit latency histograms.
	stages [3]*obs.Histogram
}

// writeProm renders the full metrics exposition from samples the caller
// takes at render time. tenants lists every tenant, default first: the
// daemon-wide counters and stage histograms are their sums, and the
// threshold, drift and model series are the default tenant's. The
// tenant-labelled series are written only when perTenant is set.
func (m *metrics) writeProm(w io.Writer, queueDepth, queueCap, inFlight int, batchFill float64, cascade cascadeSample, sources []*srcCounters, tenants []tenantSample, perTenant bool) {
	def := tenants[0]
	var tot counts
	for _, t := range tenants {
		tot.add(t.counts)
	}
	c := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	g := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	fmt.Fprintf(w, "# HELP clap_build_info Build and runtime identity of the serving binary (value is always 1).\n")
	fmt.Fprintf(w, "# TYPE clap_build_info gauge\n")
	fmt.Fprintf(w, "clap_build_info{version=\"%s\",go_version=\"%s\",backend_tags=\"%s\",kernel=\"%s\"} 1\n",
		promLabel(clap.Version), promLabel(runtime.Version()), promLabel(strings.Join(clap.BackendTags(), ",")), promLabel(nn.Kernel()))
	c("clap_serve_connections_scored_total", "Connections scored since start.", tot.scored)
	c("clap_serve_packets_total", "Packets in scored connections since start.", tot.packets)
	c("clap_serve_flagged_total", "Connections flagged over the operating threshold.", tot.flagged)
	c("clap_serve_reloads_total", "Successful hot model reloads.", tot.reloads)
	g("clap_serve_packets_per_second", "Scoring throughput over the last 5s window.", m.windowRate())
	g("clap_serve_queue_depth", "Connections waiting in the ingest queue.", float64(queueDepth))
	g("clap_serve_queue_capacity", "Ingest queue capacity.", float64(queueCap))
	g("clap_serve_stream_in_flight", "Connections inside the scoring stream.", float64(inFlight))
	g("clap_serve_threshold", "Current operating threshold.", def.threshold)
	g("clap_serve_batch_fill", "Mean occupancy of batched inference micro-batches (1 = full; 0 = unbatched).", batchFill)
	g("clap_serve_uptime_seconds", "Seconds since the daemon started.", time.Since(m.start).Seconds())
	if drift := def.drift; drift != nil {
		c("clap_serve_drift_alerts_total", "Drift alert excursions since start.", tot.alerts)
		g("clap_serve_drift", "Largest relative quantile shift of the live score distribution vs. the calibration reference.", drift.Drift)
		g("clap_serve_operating_fpr", "Estimated fraction of recent scores at or above the operating threshold.", drift.OperatingFPR)
		g("clap_serve_target_fpr", "Calibrated target FPR (0: none configured).", drift.TargetFPR)
		g("clap_serve_drift_alerting", "1 while the drift alert condition currently holds.", alerting(drift))
	}
	if cascade.present {
		c("clap_serve_cascade_evaluated_total", "Connections routed through the cascade's cheap screen.", cascade.evaluated)
		c("clap_serve_cascade_escalated_total", "Connections escalated to the cascade's expensive stage.", cascade.escalated)
		frac := 0.0
		if cascade.evaluated > 0 {
			frac = float64(cascade.escalated) / float64(cascade.evaluated)
		}
		g("clap_serve_cascade_escalation_fraction", "Fraction of evaluated connections escalated to the expensive stage.", frac)
	}

	fmt.Fprintf(w, "# HELP clap_serve_model_info Current model (value is the reload generation).\n")
	fmt.Fprintf(w, "# TYPE clap_serve_model_info gauge\n")
	fmt.Fprintf(w, "clap_serve_model_info{tag=\"%s\"} %d\n", promLabel(def.tag), def.generation)

	if perTenant {
		writeTenants(w, tenants)
	}

	// Per-source accounting, sorted for a stable exposition.
	sorted := append([]*srcCounters(nil), sources...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, metric := range []struct {
		suffix, help string
		get          func(*srcCounters) uint64
	}{
		{"connections_total", "Connections delivered by the source.", func(s *srcCounters) uint64 { return s.delivered.Load() }},
		{"dropped_total", "Connections shed at a full ingest queue.", func(s *srcCounters) uint64 { return s.dropped.Load() }},
		{"skipped_total", "Undecodable records skipped by the source.", func(s *srcCounters) uint64 { return s.skipped.Load() }},
	} {
		name := "clap_serve_source_" + metric.suffix
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, metric.help, name)
		for _, s := range sorted {
			fmt.Fprintf(w, "%s{source=\"%s\"} %d\n", name, promLabel(s.name), metric.get(s))
		}
	}

	// Kernel-side ring counters, sampled live from sources backed by an
	// AF_PACKET capture ring. The series appear only when at least one
	// such source is currently reporting, so the pcap-only exposition
	// stays byte-identical to builds without the feature.
	type ringRow struct {
		name        string
		pkts, drops uint64
	}
	var rings []ringRow
	for _, s := range sorted {
		if s.ring == nil {
			continue
		}
		if pkts, drops, ok := s.ring.RingStats(); ok {
			rings = append(rings, ringRow{name: s.name, pkts: pkts, drops: drops})
		}
	}
	if len(rings) > 0 {
		for _, metric := range []struct {
			suffix, help string
			get          func(ringRow) uint64
		}{
			{"kernel_packets_total", "Packets the kernel delivered to the source's capture ring.", func(r ringRow) uint64 { return r.pkts }},
			{"kernel_drops_total", "Packets the kernel dropped because the capture ring was full.", func(r ringRow) uint64 { return r.drops }},
		} {
			name := "clap_serve_source_" + metric.suffix
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, metric.help, name)
			for _, r := range rings {
				fmt.Fprintf(w, "%s{source=\"%s\"} %d\n", name, promLabel(r.name), metric.get(r))
			}
		}
	}

	// Stage latency histograms: the bucket-wise sum of the tenants'.
	name := "clap_serve_stage_latency_seconds"
	fmt.Fprintf(w, "# HELP %s Per-stage latency through the scoring stream.\n# TYPE %s histogram\n", name, name)
	for si, stage := range stageNames {
		hs := make([]*obs.Histogram, len(tenants))
		for i, t := range tenants {
			hs[i] = t.stages[si]
		}
		writeHistSeries(w, name, fmt.Sprintf("stage=%q,", stage), hs...)
	}

	// Tracing-only distributions (the histograms exist only with tracing
	// armed, so the untraced exposition is unchanged).
	if m.ingestWait != nil {
		n := "clap_serve_ingest_wait_seconds"
		fmt.Fprintf(w, "# HELP %s Time deliveries waited in the shared ingest queue before submission.\n# TYPE %s histogram\n", n, n)
		writeHistSeries(w, n, "", m.ingestWait)
	}
	if m.batchFill != nil {
		n := "clap_serve_batch_fill_ratio"
		fmt.Fprintf(w, "# HELP %s Per-verdict micro-batch slot occupancy (1 = full batches).\n# TYPE %s histogram\n", n, n)
		writeHistSeries(w, n, "", m.batchFill)
	}
}

// writeHistSeries renders the bucket/sum/count series of the bucket-wise
// sum of hs, which share their bounds. labels is everything inside the
// braces before le — e.g. `stage="queue",` — or "" for an unlabeled
// histogram.
func writeHistSeries(w io.Writer, name, labels string, hs ...*obs.Histogram) {
	bounds := hs[0].Bounds()
	buckets := make([]uint64, len(bounds))
	var sum float64
	var total uint64
	for _, h := range hs {
		c, s, n := h.Snapshot()
		for i := range buckets {
			buckets[i] += c[i]
		}
		sum += s
		total += n
	}
	cum := uint64(0)
	for i, b := range bounds {
		cum += buckets[i]
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labels, trimFloat(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, total)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, sum)
		fmt.Fprintf(w, "%s_count %d\n", name, total)
		return
	}
	bare := strings.TrimSuffix(labels, ",")
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, bare, sum)
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, bare, total)
}

// writeTenants renders the tenant-labelled series. Label values pass
// through promLabel — tenant names are operator input.
func writeTenants(w io.Writer, tenants []tenantSample) {
	counter := func(name, help string, get func(tenantSample) uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, t := range tenants {
			fmt.Fprintf(w, "%s{tenant=\"%s\"} %d\n", name, promLabel(t.name), get(t))
		}
	}
	gauge := func(name, help string, get func(tenantSample) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, t := range tenants {
			fmt.Fprintf(w, "%s{tenant=\"%s\"} %g\n", name, promLabel(t.name), get(t))
		}
	}
	counter("clap_serve_tenant_scored_total", "Connections scored for the tenant.", func(t tenantSample) uint64 { return t.scored })
	counter("clap_serve_tenant_packets_total", "Packets in the tenant's scored connections.", func(t tenantSample) uint64 { return t.packets })
	counter("clap_serve_tenant_flagged_total", "Tenant connections flagged over its operating threshold.", func(t tenantSample) uint64 { return t.flagged })
	counter("clap_serve_tenant_delivered_total", "Tenant connections admitted to the shared ingest queue.", func(t tenantSample) uint64 { return t.delivered })
	counter("clap_serve_tenant_shed_total", "Tenant connections shed by its own quota or at a full queue.", func(t tenantSample) uint64 { return t.shed })
	counter("clap_serve_tenant_reloads_total", "Successful hot model reloads for the tenant.", func(t tenantSample) uint64 { return t.reloads })
	gauge("clap_serve_tenant_in_flight", "Tenant connections admitted but not yet emitted.", func(t tenantSample) float64 { return float64(t.inFlight) })
	gauge("clap_serve_tenant_threshold", "Tenant operating threshold.", func(t tenantSample) float64 { return t.threshold })

	fmt.Fprintf(w, "# HELP clap_serve_tenant_model_info Tenant's current model (value is the reload generation).\n")
	fmt.Fprintf(w, "# TYPE clap_serve_tenant_model_info gauge\n")
	for _, t := range tenants {
		fmt.Fprintf(w, "clap_serve_tenant_model_info{tenant=\"%s\",tag=\"%s\"} %d\n", promLabel(t.name), promLabel(t.tag), t.generation)
	}

	// Per-tenant stage latency histograms: one tenant's stalls stay
	// visible next to a fast neighbour's volume.
	histName := "clap_serve_tenant_stage_latency_seconds"
	fmt.Fprintf(w, "# HELP %s Per-stage latency through the scoring stream, by tenant.\n# TYPE %s histogram\n", histName, histName)
	for _, t := range tenants {
		for si, h := range t.stages {
			writeHistSeries(w, histName, fmt.Sprintf("tenant=\"%s\",stage=%q,", promLabel(t.name), stageNames[si]), h)
		}
	}

	// Drift, per tenant (each tenant monitors against its own reference).
	if tenants[0].drift != nil {
		counter("clap_serve_tenant_drift_alerts_total", "Tenant drift alert excursions.", func(t tenantSample) uint64 { return t.alerts })
		gauge("clap_serve_tenant_drift", "Tenant's largest relative quantile shift vs. its calibration reference.", func(t tenantSample) float64 { return t.drift.Drift })
		gauge("clap_serve_tenant_operating_fpr", "Tenant's estimated fraction of recent scores at or above its threshold.", func(t tenantSample) float64 { return t.drift.OperatingFPR })
		gauge("clap_serve_tenant_target_fpr", "Tenant's calibrated target FPR (0: none configured).", func(t tenantSample) float64 { return t.drift.TargetFPR })
		gauge("clap_serve_tenant_drift_alerting", "1 while the tenant's drift alert condition currently holds.", func(t tenantSample) float64 { return alerting(t.drift) })
	}
}

// alerting renders the drift alert latch as a gauge value.
func alerting(st *DriftStatus) float64 {
	if st.Alert {
		return 1
	}
	return 0
}

// trimFloat renders a bucket bound the Prometheus way (no exponent for
// these magnitudes, no trailing zeros).
func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }
