package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"clap"
	"clap/internal/backend"
	"clap/internal/nn"
	"clap/internal/tenant"
)

// traceBody is the /v1/trace response shape.
type traceBody struct {
	Tenant     string          `json:"tenant"`
	Decisions  []clap.Decision `json:"decisions"`
	DeepTraces int             `json:"deep_traces"`
}

// explainBody is the /v1/explain response shape.
type explainBody struct {
	Tenant string     `json:"tenant"`
	Trace  clap.Trace `json:"trace"`
}

// TestServeTraceExplainByteIdentity is the acceptance check for the deep
// trace path: /v1/explain must reconstruct the per-window error series
// byte-identically to offline re-scoring with the recorded model — no
// re-inference, no drift between what was served and what is explained.
// It also pins the /v1/trace provenance feed: every verdict appears with
// the (model, generation, threshold) binding that judged it.
func TestServeTraceExplainByteIdentity(t *testing.T) {
	clapModel, _ := fixture(t)
	model := loadModel(t, clapModel)

	// A mixed corpus, deduplicated by key so sampling parity and the
	// keyed trace store are deterministic per connection.
	corpus, _, err := clap.AttackCorpus(clap.TrafficGen(16, 41),
		"GFW: Injected RST Bad TCP-Checksum/MD5-Option", 0.5, 7).Connections(nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var conns []*clap.Connection
	for _, c := range corpus {
		k := c.Key.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		conns = append(conns, c)
	}
	if len(conns) < 8 {
		t.Fatalf("corpus too small after dedup: %d", len(conns))
	}
	// Pick the median offline score as threshold so both flagged and
	// unflagged verdicts exist.
	scores := make([]float64, len(conns))
	for i, c := range conns {
		scores[i] = model.ScoreConn(c)
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	th := sorted[len(sorted)/2]
	if sorted[0] >= th || sorted[len(sorted)-1] < th {
		t.Fatalf("degenerate score spread %v..%v around threshold %v", sorted[0], sorted[len(sorted)-1], th)
	}

	src := &chanSource{name: "traced", ch: make(chan *clap.Connection, len(conns))}
	srv, err := New(Config{
		Backend:     loadModel(t, clapModel),
		Threshold:   th,
		QueueDepth:  16,
		DriftWindow: -1,
		TraceSample: 2, // head-sample every other delivery; flagged always
		TraceRing:   256,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.AddSource(src)
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		src.ch <- c
	}
	close(src.ch)
	waitScored(t, srv, uint64(len(conns)))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	// The decision ring holds every verdict with its full binding.
	var tb traceBody
	getJSON(t, ts.URL+"/v1/trace", &tb)
	if len(tb.Decisions) != len(conns) {
		t.Fatalf("/v1/trace returned %d decisions, want %d", len(tb.Decisions), len(conns))
	}
	byKey := map[string]clap.Decision{}
	for i, d := range tb.Decisions {
		if i > 0 && d.Seq <= tb.Decisions[i-1].Seq {
			t.Fatalf("merged trace out of stream order at %d: %d after %d", i, d.Seq, tb.Decisions[i-1].Seq)
		}
		if d.Model != clap.BackendCLAP || d.Generation != 0 || d.Threshold != th {
			t.Fatalf("decision %s binding (%s, %d, %v), want (%s, 0, %v)",
				d.Key, d.Model, d.Generation, d.Threshold, clap.BackendCLAP, th)
		}
		if d.Flagged != (d.Score >= th) {
			t.Fatalf("decision %s flagged=%v inconsistent with score %v vs threshold %v", d.Key, d.Flagged, d.Score, th)
		}
		if d.Source != "traced" || d.Time.IsZero() {
			t.Fatalf("decision %s missing attribution: source=%q time=%v", d.Key, d.Source, d.Time)
		}
		byKey[d.Key] = d
	}
	// ?n= caps to the most recent records.
	var tail traceBody
	getJSON(t, ts.URL+"/v1/trace?n=3", &tail)
	if len(tail.Decisions) != 3 {
		t.Fatalf("/v1/trace?n=3 returned %d decisions, want 3", len(tail.Decisions))
	}
	if tail.Decisions[2].Seq != tb.Decisions[len(tb.Decisions)-1].Seq {
		t.Fatalf("/v1/trace?n=3 ends at seq %d, want the newest %d", tail.Decisions[2].Seq, tb.Decisions[len(tb.Decisions)-1].Seq)
	}

	explained, denied := 0, 0
	for i, c := range conns {
		key := c.Key.String()
		sampled := i%2 == 0 // head sampling: first delivery and every 2nd
		flagged := scores[i] >= th
		u := ts.URL + "/v1/explain?key=" + url.QueryEscape(key)
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		if !sampled && !flagged {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("unsampled unflagged %s: explain %s, want 404", key, resp.Status)
			}
			denied++
			continue
		}
		var eb explainBody
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("explain %s: %s", key, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("explain %s: %v", key, err)
		}
		resp.Body.Close()
		explained++

		// The acceptance bar: the retained series is byte-identical to
		// offline re-scoring with the recorded model.
		offline := backend.WindowErrors(model, c)
		if len(eb.Trace.Errors) != len(offline) {
			t.Fatalf("explain %s: %d windows, offline %d", key, len(eb.Trace.Errors), len(offline))
		}
		for w := range offline {
			if math.Float64bits(eb.Trace.Errors[w]) != math.Float64bits(offline[w]) {
				t.Fatalf("explain %s window %d: %v != offline %v (bit mismatch)", key, w, eb.Trace.Errors[w], offline[w])
			}
		}
		score, peak := model.Summarize(offline)
		d := eb.Trace.Decision
		if d.Score != score || eb.Trace.PeakWindow != peak {
			t.Fatalf("explain %s: (score, peak) = (%v, %d), offline (%v, %d)", key, d.Score, eb.Trace.PeakWindow, score, peak)
		}
		if len(eb.Trace.TopWindows) == 0 || eb.Trace.TopWindows[0] != peak {
			t.Fatalf("explain %s: top windows %v, want localization led by peak %d", key, eb.Trace.TopWindows, peak)
		}
		if d.Flagged != flagged || d.Sampled != sampled {
			t.Fatalf("explain %s: flagged=%v sampled=%v, want %v/%v", key, d.Flagged, d.Sampled, flagged, sampled)
		}
		if d.Attack != c.AttackName {
			t.Fatalf("explain %s: attack %q, want %q", key, d.Attack, c.AttackName)
		}
		if rd, ok := byKey[key]; !ok || rd.Seq != d.Seq {
			t.Fatalf("explain %s: seq %d disagrees with the trace ring's %d", key, d.Seq, rd.Seq)
		}
	}
	if explained == 0 || denied == 0 {
		t.Fatalf("sampling did not split the corpus: %d explained, %d denied", explained, denied)
	}
	if tb.DeepTraces != explained {
		t.Fatalf("deep_traces = %d, want %d retained", tb.DeepTraces, explained)
	}

	// Parameter validation.
	for path, want := range map[string]int{
		"/v1/explain":                  http.StatusBadRequest, // no key
		"/v1/explain?key=nope":         http.StatusNotFound,
		"/v1/explain?key=x&tenant=ghz": http.StatusNotFound,
		"/v1/trace?n=bogus":            http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: %s, want %d", path, resp.Status, want)
		}
	}
}

// TestServeTraceDisabled: with tracing disarmed the endpoints 404 so
// clients can probe, and no provenance rides the results.
func TestServeTraceDisabled(t *testing.T) {
	clapModel, _ := fixture(t)
	var sawProv bool
	src := &chanSource{name: "off", ch: make(chan *clap.Connection, 8)}
	srv, err := New(Config{
		Backend:     loadModel(t, clapModel),
		Threshold:   0.0001,
		DriftWindow: -1,
		OnResult: func(r clap.Result) {
			if r.Prov != nil {
				sawProv = true
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.AddSource(src)
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, c := range clap.GenerateBenign(4, 19) {
		src.ch <- c
	}
	close(src.ch)
	waitScored(t, srv, 4)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/v1/trace", "/v1/explain?key=x"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s with tracing off: %s, want 404", path, resp.Status)
		}
	}
	// Shutdown joins the emit goroutine, so sawProv is safe to read.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sawProv {
		t.Fatal("provenance captured with tracing disabled")
	}
}

// TestServeFlaggedRingWrapProvenance pins the ring-wrap regression:
// flagged entries surviving a wrapped ring keep their localization
// (TopWindows) and carry a complete provenance record, and entries the
// wrap evicted remain reconstructable through /v1/explain — the deep
// trace store retains every flagged connection independently of the
// alert ring's capacity.
func TestServeFlaggedRingWrapProvenance(t *testing.T) {
	clapModel, _ := fixture(t)
	const n, ring = 12, 4
	corpus := clap.GenerateBenign(n, 23)
	keys := map[string]bool{}
	for _, c := range corpus {
		keys[c.Key.String()] = true
	}
	if len(keys) != n {
		t.Fatalf("benign corpus reused keys: %d unique of %d", len(keys), n)
	}

	src := &chanSource{name: "wrap", ch: make(chan *clap.Connection, n)}
	srv, err := New(Config{
		Backend:     loadModel(t, clapModel),
		Threshold:   0.0001, // everything flags: the ring of 4 wraps twice
		FlaggedRing: ring,
		DriftWindow: -1,
		TraceSample: 1,
		TraceRing:   64,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.AddSource(src)
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, c := range corpus {
		src.ch <- c
	}
	close(src.ch)
	waitScored(t, srv, n)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	var fb struct {
		Flagged []FlaggedConn `json:"flagged"`
		Total   uint64        `json:"total_flagged"`
	}
	getJSON(t, ts.URL+"/v1/flagged", &fb)
	if len(fb.Flagged) != ring || fb.Total != n {
		t.Fatalf("flagged ring len=%d total=%d, want %d/%d", len(fb.Flagged), fb.Total, ring, n)
	}
	for _, fc := range fb.Flagged {
		if len(fc.TopWindows) == 0 {
			t.Fatalf("flagged %s lost its TopWindows across the ring wrap", fc.Key)
		}
		d := fc.Provenance
		if d == nil {
			t.Fatalf("flagged %s carries no provenance", fc.Key)
		}
		if d.Key != fc.Key || d.Model != clap.BackendCLAP || d.Threshold != 0.0001 || !d.Flagged || d.Time.IsZero() {
			t.Fatalf("flagged %s provenance incomplete: %+v", fc.Key, d)
		}
	}
	// Every flagged connection — including the n-ring the wrap evicted —
	// is still explainable with full localization.
	for key := range keys {
		var eb explainBody
		getJSON(t, ts.URL+"/v1/explain?key="+url.QueryEscape(key), &eb)
		if len(eb.Trace.Errors) == 0 || len(eb.Trace.TopWindows) == 0 {
			t.Fatalf("evicted flagged %s lost its deep trace: %+v", key, eb.Trace)
		}
		if !eb.Trace.Decision.Flagged {
			t.Fatalf("trace for %s lost the flagged verdict", key)
		}
	}
}

// promNameRe / promLabelRe are the exposition-format identifier rules.
var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// lintProm is a strict text-exposition parser: every sample line must
// parse as name{labels} value, every name must be declared with HELP
// then TYPE before its first sample, types must be legal, no series may
// repeat, and histograms must be internally consistent (cumulative
// non-decreasing buckets, +Inf == _count, _sum present). Returns the
// full series map keyed by name{sorted labels}.
func lintProm(t *testing.T, body string) map[string]float64 {
	t.Helper()
	helped := map[string]bool{}
	typed := map[string]string{}
	series := map[string]float64{}
	type hist struct {
		buckets []float64 // cumulative, in render order
		les     []string
		sum     bool
		count   float64
		counted bool
	}
	hists := map[string]*hist{} // name + non-le labels

	parseLabels := func(line, s string) (pairs []string, byName map[string]string) {
		byName = map[string]string{}
		for len(s) > 0 {
			eq := strings.IndexByte(s, '=')
			if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
				t.Fatalf("malformed label segment %q in %q", s, line)
			}
			name := s[:eq]
			if !promLabelRe.MatchString(name) {
				t.Fatalf("bad label name %q in %q", name, line)
			}
			rest := s[eq+2:]
			var val strings.Builder
			i, closed := 0, false
			for i < len(rest) {
				switch rest[i] {
				case '\\':
					if i+1 >= len(rest) {
						t.Fatalf("dangling escape in %q", line)
					}
					val.WriteByte(rest[i+1])
					i += 2
				case '"':
					closed = true
				default:
					val.WriteByte(rest[i])
					i++
				}
				if closed {
					break
				}
			}
			if !closed {
				t.Fatalf("unterminated label value in %q", line)
			}
			if _, dup := byName[name]; dup {
				t.Fatalf("duplicate label %q in %q", name, line)
			}
			byName[name] = val.String()
			pairs = append(pairs, name+`="`+val.String()+`"`)
			s = rest[i+1:]
			if strings.HasPrefix(s, ",") {
				s = s[1:]
			} else if len(s) > 0 {
				t.Fatalf("junk %q after label value in %q", s, line)
			}
		}
		return pairs, byName
	}

	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(f) != 2 || !promNameRe.MatchString(f[0]) || f[1] == "" {
				t.Fatalf("malformed HELP line %q", line)
			}
			helped[f[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(f) != 2 || !promNameRe.MatchString(f[0]) {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if f[1] != "counter" && f[1] != "gauge" && f[1] != "histogram" {
				t.Fatalf("illegal metric type in %q", line)
			}
			if !helped[f[0]] {
				t.Fatalf("TYPE before HELP for %s", f[0])
			}
			if _, dup := typed[f[0]]; dup {
				t.Fatalf("duplicate TYPE declaration for %s", f[0])
			}
			typed[f[0]] = f[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unrecognized comment line %q", line)
		}

		// Sample line: name[{labels}] value
		name, labelPart, rest := line, "", ""
		if br := strings.IndexByte(line, '{'); br >= 0 {
			name = line[:br]
			end := strings.LastIndexByte(line, '}')
			if end < br {
				t.Fatalf("unbalanced braces in %q", line)
			}
			labelPart = line[br+1 : end]
			rest = line[end+1:]
		} else if sp := strings.IndexByte(line, ' '); sp >= 0 {
			name, rest = line[:sp], line[sp:]
		}
		fields := strings.Fields(rest)
		if !promNameRe.MatchString(name) || len(fields) != 1 {
			t.Fatalf("malformed sample line %q (name %q, fields %v)", line, name, fields)
		}
		value, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		pairs, byName := parseLabels(line, labelPart)

		// Resolve the declared family: exact, or a histogram suffix.
		base, isHist := name, false
		if typed[base] == "" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if b := strings.TrimSuffix(name, suffix); b != name && typed[b] == "histogram" {
					base, isHist = b, true
					break
				}
			}
		}
		if typed[base] == "" {
			t.Fatalf("sample %q has no HELP/TYPE declaration", name)
		}
		if typed[base] == "histogram" && base == name {
			t.Fatalf("histogram %s exposed a bare sample without _bucket/_sum/_count", name)
		}

		sortedPairs := append([]string(nil), pairs...)
		sort.Strings(sortedPairs)
		key := name + "{" + strings.Join(sortedPairs, ",") + "}"
		if _, dup := series[key]; dup {
			t.Fatalf("duplicate series %s", key)
		}
		series[key] = value

		if isHist {
			var nonLe []string
			for _, p := range pairs {
				if !strings.HasPrefix(p, `le="`) {
					nonLe = append(nonLe, p)
				}
			}
			sort.Strings(nonLe)
			hk := base + "{" + strings.Join(nonLe, ",") + "}"
			h := hists[hk]
			if h == nil {
				h = &hist{}
				hists[hk] = h
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le, ok := byName["le"]
				if !ok {
					t.Fatalf("bucket series %s lacks an le label", key)
				}
				h.buckets = append(h.buckets, value)
				h.les = append(h.les, le)
			case strings.HasSuffix(name, "_sum"):
				h.sum = true
			case strings.HasSuffix(name, "_count"):
				h.count, h.counted = value, true
			}
		}
	}
	for hk, h := range hists {
		if !h.sum || !h.counted {
			t.Fatalf("histogram %s missing _sum or _count", hk)
		}
		if len(h.les) == 0 || h.les[len(h.les)-1] != "+Inf" {
			t.Fatalf("histogram %s buckets do not end at +Inf: %v", hk, h.les)
		}
		prevBound := math.Inf(-1)
		for i, le := range h.les[:len(h.les)-1] {
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil || bound <= prevBound {
				t.Fatalf("histogram %s bucket bounds not ascending: %v (%v)", hk, h.les, err)
			}
			prevBound = bound
			if i > 0 && h.buckets[i] < h.buckets[i-1] {
				t.Fatalf("histogram %s cumulative buckets decreased: %v", hk, h.buckets)
			}
		}
		if inf := h.buckets[len(h.buckets)-1]; inf != h.count || inf < h.buckets[len(h.buckets)-2] {
			t.Fatalf("histogram %s +Inf bucket %v != count %v", hk, inf, h.count)
		}
	}
	return series
}

// TestServeMetricsStrictExposition runs the strict parser over the full
// /metrics page in both serving shapes: the single-tenant untraced
// daemon (which must expose no tracing or tenant series), and a
// two-tenant traced one (which must expose per-tenant stage histograms
// and the tracing-only distributions).
func TestServeMetricsStrictExposition(t *testing.T) {
	clapModel, _ := fixture(t)

	// Single tenant, tracing off.
	src := &chanSource{name: "solo", ch: make(chan *clap.Connection, 16)}
	srv, err := New(Config{
		Backend:     loadModel(t, clapModel),
		Threshold:   0.5,
		DriftWindow: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.AddSource(src)
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, c := range clap.GenerateBenign(10, 3) {
		src.ch <- c
	}
	close(src.ch)
	waitScored(t, srv, 10)
	ts := httptest.NewServer(srv.Handler())
	body := getBody(t, ts.URL+"/metrics")
	series := lintProm(t, body)
	buildKey := fmt.Sprintf("clap_build_info{backend_tags=%q,go_version=%q,kernel=%q,version=%q}",
		strings.Join(clap.BackendTags(), ","), runtime.Version(), nn.Kernel(), clap.Version)
	if v, ok := series[buildKey]; !ok || v != 1 {
		t.Fatalf("missing build info series %s in:\n%s", buildKey, body)
	}
	for key := range series {
		if strings.Contains(key, `tenant="`) ||
			strings.HasPrefix(key, "clap_serve_ingest_wait_seconds") ||
			strings.HasPrefix(key, "clap_serve_batch_fill_ratio") {
			t.Fatalf("untraced single-tenant exposition leaked %s", key)
		}
	}
	if got := series[fmt.Sprintf("clap_serve_stage_latency_seconds_count{stage=%q}", "score")]; got != 10 {
		t.Fatalf("aggregate score-stage count %v, want 10", got)
	}
	ts.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Two tenants, tracing on.
	srv2, srcA, srcB := twoTenantServer(t, Config{
		Threshold:   0.5,
		DriftWindow: -1,
		TraceSample: 1,
	}, tenant.Quota{}, tenant.Quota{})
	if err := srv2.SetThreshold("a", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := srv2.SetThreshold("b", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		src *chanSource
		n   int
	}{{srcA, 6}, {srcB, 4}} {
		for _, c := range clap.GenerateBenign(tc.n, 13) {
			tc.src.ch <- c
		}
		close(tc.src.ch)
	}
	waitScored(t, srv2, 10)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Shutdown(context.Background())
	body2 := getBody(t, ts2.URL+"/metrics")
	series2 := lintProm(t, body2)

	for _, name := range []string{"a", "b"} {
		key := fmt.Sprintf("clap_serve_tenant_stage_latency_seconds_count{stage=%q,tenant=%q}", "score", name)
		want := float64(6)
		if name == "b" {
			want = 4
		}
		if got := series2[key]; got != want {
			t.Fatalf("%s = %v, want %v in:\n%s", key, got, want, body2)
		}
	}
	if got := series2["clap_serve_ingest_wait_seconds_count{}"]; got != 10 {
		t.Fatalf("ingest wait count %v, want 10", got)
	}
	if _, ok := series2["clap_serve_batch_fill_ratio_count{}"]; !ok {
		t.Fatalf("traced exposition missing the batch fill distribution:\n%s", body2)
	}
}

// getBody fetches a URL and returns its body, failing on any error.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, b)
	}
	return string(b)
}
