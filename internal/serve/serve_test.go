package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"clap"
	"clap/internal/backend"
	"clap/internal/nn"
)

// The shared fixture: two tiny trained models of different registry tags,
// persisted to disk so reload tests exercise the tagged-header path.
var (
	fixOnce  sync.Once
	fixErr   error
	clapPath string
	b1Path   string
)

func fixture(t *testing.T) (clapModel, baseline1Model string) {
	t.Helper()
	fixOnce.Do(func() {
		dir, err := os.MkdirTemp("", "clap-serve-test-*")
		if err != nil {
			fixErr = err
			return
		}
		train := clap.GenerateBenign(80, 1)
		for _, sys := range []struct {
			tag  string
			path *string
		}{
			{clap.BackendCLAP, &clapPath},
			{clap.BackendBaseline1, &b1Path},
		} {
			b, err := clap.NewBackend(sys.tag)
			if err != nil {
				fixErr = err
				return
			}
			cb := b.(*clap.CLAPBackend)
			cb.Cfg.RNNEpochs, cb.Cfg.AEEpochs = 4, 6
			if err := b.Train(train, func(string, ...any) {}); err != nil {
				fixErr = err
				return
			}
			*sys.path = filepath.Join(dir, sys.tag+".model")
			if err := clap.SaveBackendFile(*sys.path, b); err != nil {
				fixErr = err
				return
			}
		}
	})
	if fixErr != nil {
		t.Fatalf("building fixture models: %v", fixErr)
	}
	return clapPath, b1Path
}

func loadModel(t *testing.T, path string) clap.Backend {
	t.Helper()
	b, err := clap.LoadBackendFile(path)
	if err != nil {
		t.Fatalf("loading %s: %v", path, err)
	}
	return b
}

// calibrated derives b's operating point at fpr from src, as clap-serve
// -calibrate does before serving: the snapshot a Config takes.
func calibrated(t *testing.T, b clap.Backend, fpr float64, src clap.Source) *clap.Calibration {
	t.Helper()
	p, err := clap.NewPipeline(clap.WithBackend(b))
	if err != nil {
		t.Fatal(err)
	}
	cal, err := p.Calibrate(fpr, src)
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// chanSource delivers test-controlled connections until its channel closes.
type chanSource struct {
	name string
	ch   chan *clap.Connection
}

func (s *chanSource) Name() string { return s.name }

func (s *chanSource) Stream(ctx context.Context, deliver func(*clap.Connection)) (int, error) {
	for {
		select {
		case c, ok := <-s.ch:
			if !ok {
				return 0, nil
			}
			deliver(c)
		case <-ctx.Done():
			return 0, nil
		}
	}
}

// waitScored polls until the server has scored want connections.
func waitScored(t *testing.T, s *Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for s.Scored() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d scored connections (have %d)", want, s.Scored())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// getJSON fetches url and decodes the JSON body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

// promCounters parses the counter/gauge samples out of a /metrics body.
func promCounters(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable metric line %q", line)
		}
		out[line[:i]] = v
	}
	return out
}

func getMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	return promCounters(t, buf.String())
}

// TestServeEndToEnd is the acceptance scenario: soak ingest, flagged
// connections over the ops API, hot reload to a different backend tag,
// monotone metrics, and post-reload scores bit-identical to a batch
// Pipeline.Run with the same model and inputs.
func TestServeEndToEnd(t *testing.T) {
	clapModel, b1Model := fixture(t)

	const soakN = 40
	var mu sync.Mutex
	var results []clap.Result
	post := &chanSource{name: "post-reload", ch: make(chan *clap.Connection, 16)}

	b := loadModel(t, clapModel)
	srv, err := New(Config{
		Backend:             b,
		ModelPath:           clapModel,
		CalibrationSnapshot: calibrated(t, b, 0.25, clap.TrafficGen(80, 5)),
		QueueDepth:          64,
		FlaggedRing:         64,
		OnResult: func(r clap.Result) {
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.AddSource(clap.Soak(clap.SoakConfig{
		Connections:    soakN,
		Seed:           9,
		AttackFraction: 0.5,
	}))
	srv.AddSource(post)
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Health comes up immediately.
	var health struct {
		Status string `json:"status"`
		Model  string `json:"model"`
		Kernel string `json:"kernel"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" || health.Model != clap.BackendCLAP || health.Kernel != nn.Kernel() {
		t.Fatalf("healthz = %+v", health)
	}

	waitScored(t, srv, soakN)
	m1 := getMetrics(t, ts.URL)
	if m1["clap_serve_connections_scored_total"] != soakN {
		t.Fatalf("scored_total = %v, want %d", m1["clap_serve_connections_scored_total"], soakN)
	}
	if m1["clap_serve_packets_total"] <= 0 {
		t.Fatal("packets_total not counted")
	}
	if m1[`clap_serve_stage_latency_seconds_count{stage="score"}`] != soakN {
		t.Fatalf("score latency histogram count = %v, want %d",
			m1[`clap_serve_stage_latency_seconds_count{stage="score"}`], soakN)
	}

	// At a 25% calibration FPR over a half-attacked soak, something must
	// be flagged — and /v1/flagged must serve it.
	var flagged struct {
		Flagged      []FlaggedConn `json:"flagged"`
		TotalFlagged uint64        `json:"total_flagged"`
	}
	getJSON(t, ts.URL+"/v1/flagged", &flagged)
	if flagged.TotalFlagged == 0 || len(flagged.Flagged) == 0 {
		t.Fatalf("no flagged connections: %+v", flagged)
	}
	if flagged.Flagged[0].Key == "" || flagged.Flagged[0].Score <= 0 {
		t.Fatalf("malformed flagged record: %+v", flagged.Flagged[0])
	}

	// Threshold: GET, then PUT a new value, then reject a bad one.
	var th struct {
		Threshold float64 `json:"threshold"`
	}
	getJSON(t, ts.URL+"/v1/threshold", &th)
	if th.Threshold <= 0 {
		t.Fatalf("calibrated threshold = %v", th.Threshold)
	}
	origTh := th.Threshold
	putReq, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/threshold",
		strings.NewReader(fmt.Sprintf(`{"threshold": %g}`, origTh)))
	resp, err := http.DefaultClient.Do(putReq)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT threshold: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	badReq, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/threshold",
		strings.NewReader(`{"threshold": -1}`))
	resp, err = http.DefaultClient.Do(badReq)
	if err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT bad threshold: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	// Concatenated JSON values must be rejected outright, not applied
	// first-value-wins; the live threshold must be untouched afterwards.
	dupReq, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/threshold",
		strings.NewReader(`{"threshold": 0.001}{"threshold": 99}`))
	resp, err = http.DefaultClient.Do(dupReq)
	if err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT concatenated threshold bodies: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	getJSON(t, ts.URL+"/v1/threshold", &th)
	if th.Threshold != origTh {
		t.Fatalf("threshold %v changed by rejected PUT, want %v", th.Threshold, origTh)
	}

	// Batched inference ran (CLAP supports it; the default batch size is
	// on), so the fill gauge must be live and sane.
	if fill := m1["clap_serve_batch_fill"]; !(fill > 0 && fill <= 1) {
		t.Fatalf("clap_serve_batch_fill = %v, want in (0, 1]", fill)
	}

	// Hot reload to the baseline1 model — a different registry tag.
	resp, err = http.Post(ts.URL+"/v1/reload", "application/json",
		strings.NewReader(fmt.Sprintf(`{"path": %q}`, b1Model)))
	if err != nil {
		t.Fatal(err)
	}
	var reload struct {
		Old ReloadInfo `json:"old"`
		New ReloadInfo `json:"new"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reload); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	if reload.Old.Tag != clap.BackendCLAP || reload.New.Tag != clap.BackendBaseline1 {
		t.Fatalf("reload tags: %+v", reload)
	}
	if reload.New.Generation != 1 {
		t.Fatalf("reload generation = %d, want 1", reload.New.Generation)
	}

	// Feed a fresh corpus after the reload and compare every score
	// bit-for-bit against a batch Pipeline.Run with the same model file
	// and the same connections.
	suspectSrc := clap.AttackCorpus(clap.TrafficGen(12, 33),
		"GFW: Injected RST Bad TCP-Checksum/MD5-Option", 0.5, 7)
	suspects, _, err := suspectSrc.Connections(nil)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	results = results[:0]
	mu.Unlock()
	for _, c := range suspects {
		post.ch <- c
	}
	close(post.ch)
	waitScored(t, srv, soakN+uint64(len(suspects)))

	batchPipe, err := clap.NewPipeline(
		clap.WithBackend(loadModel(t, b1Model)),
		clap.WithThreshold(srv.Threshold()),
	)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := batchPipe.Run(clap.Conns(suspects...))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	streamed := append([]clap.Result(nil), results...)
	mu.Unlock()
	if len(streamed) != len(batch.Results) {
		t.Fatalf("streamed %d post-reload results, batch %d", len(streamed), len(batch.Results))
	}
	for i := range streamed {
		if streamed[i].Score != batch.Results[i].Score {
			t.Fatalf("post-reload conn %d: served score %v != batch score %v",
				i, streamed[i].Score, batch.Results[i].Score)
		}
		if streamed[i].Flagged != batch.Results[i].Flagged {
			t.Fatalf("post-reload conn %d: served flagged=%v, batch=%v",
				i, streamed[i].Flagged, batch.Results[i].Flagged)
		}
	}

	// Metrics are monotone across the whole session and count the reload.
	m2 := getMetrics(t, ts.URL)
	for _, counter := range []string{
		"clap_serve_connections_scored_total",
		"clap_serve_packets_total",
		"clap_serve_flagged_total",
		"clap_serve_reloads_total",
		`clap_serve_stage_latency_seconds_count{stage="score"}`,
		`clap_serve_stage_latency_seconds_count{stage="queue"}`,
		`clap_serve_stage_latency_seconds_count{stage="emit"}`,
	} {
		if m2[counter] < m1[counter] {
			t.Errorf("counter %s went backwards: %v -> %v", counter, m1[counter], m2[counter])
		}
	}
	if m2["clap_serve_reloads_total"] != 1 {
		t.Errorf("reloads_total = %v, want 1", m2["clap_serve_reloads_total"])
	}
	if m2["clap_serve_connections_scored_total"] != soakN+float64(len(suspects)) {
		t.Errorf("scored_total = %v, want %d", m2["clap_serve_connections_scored_total"], soakN+len(suspects))
	}
	if got := m2[`clap_serve_model_info{tag="baseline1"}`]; got != 1 {
		t.Errorf("model_info generation = %v, want 1", got)
	}

	// Per-source accounting made it to the summary.
	var summary struct {
		Scored  uint64 `json:"scored"`
		Sources []struct {
			Name      string `json:"name"`
			Delivered uint64 `json:"delivered"`
			Done      bool   `json:"done"`
		} `json:"sources"`
	}
	getJSON(t, ts.URL+"/v1/summary", &summary)
	if summary.Scored != soakN+uint64(len(suspects)) {
		t.Errorf("summary scored = %d", summary.Scored)
	}
	bySource := map[string]uint64{}
	for _, s := range summary.Sources {
		bySource[s.Name] = s.Delivered
	}
	if bySource["soak"] != soakN || bySource["post-reload"] != uint64(len(suspects)) {
		t.Errorf("per-source delivery: %+v", bySource)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeReloadWhileScoring hammers Reload while the stream is under
// load. Race-clean under -race, and every emitted score must equal the
// batch score of either model — an atomic swap can never produce a
// mixed-model score.
func TestServeReloadWhileScoring(t *testing.T) {
	clapModel, b1Model := fixture(t)

	const n = 120
	var mu sync.Mutex
	scored := make(map[*clap.Connection]float64, n)

	srv, err := New(Config{
		Backend:    loadModel(t, clapModel),
		ModelPath:  clapModel,
		QueueDepth: 8,
		OnResult: func(r clap.Result) {
			mu.Lock()
			scored[r.Conn] = r.Score
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.AddSource(clap.Soak(clap.SoakConfig{Connections: n, Seed: 21, AttackFraction: 0.3}))
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Alternate reloads between the two model files while scoring runs.
	paths := []string{b1Model, clapModel}
	reloads := 0
	for srv.Scored() < n {
		if _, err := srv.Reload("", ReloadRequest{Path: paths[reloads%2]}); err != nil {
			t.Fatalf("reload %d: %v", reloads, err)
		}
		reloads++
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if reloads == 0 {
		t.Fatal("no reloads happened while scoring")
	}

	// Every streamed score matches one of the two models' serial scores.
	a := loadModel(t, clapModel)
	b := loadModel(t, b1Model)
	mu.Lock()
	defer mu.Unlock()
	if len(scored) != n {
		t.Fatalf("scored %d connections, want %d", len(scored), n)
	}
	for c, got := range scored {
		if got != a.ScoreConn(c) && got != b.ScoreConn(c) {
			t.Fatalf("score %v matches neither model (clap=%v, baseline1=%v) — mixed-model scoring",
				got, a.ScoreConn(c), b.ScoreConn(c))
		}
	}
}

// TestServeQueueShedding pins the load-shedding path deterministically: a
// full queue drops and counts instead of blocking.
func TestServeQueueShedding(t *testing.T) {
	clapModel, _ := fixture(t)
	srv, err := New(Config{
		Backend:      loadModel(t, clapModel),
		QueueDepth:   2,
		DropWhenFull: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := &srcCounters{name: "test"}
	deliver := srv.deliverFunc(context.Background(), st, srv.tenants[0])
	conns := clap.GenerateBenign(4, 1)
	// No pump is running: the first two fill the queue, the rest shed.
	for _, c := range conns {
		deliver(c)
	}
	if st.delivered.Load() != 2 || st.dropped.Load() != 2 {
		t.Fatalf("delivered=%d dropped=%d, want 2/2", st.delivered.Load(), st.dropped.Load())
	}
}

// TestServeBackpressure pins the blocking path: with shedding off, a full
// queue blocks the source until shutdown cancels it.
func TestServeBackpressure(t *testing.T) {
	clapModel, _ := fixture(t)
	srv, err := New(Config{
		Backend:    loadModel(t, clapModel),
		QueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	st := &srcCounters{name: "test"}
	deliver := srv.deliverFunc(ctx, st, srv.tenants[0])
	conns := clap.GenerateBenign(2, 1)
	deliver(conns[0]) // fills the queue

	blocked := make(chan struct{})
	go func() {
		deliver(conns[1]) // must block until cancel
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("second delivery did not block on a full queue")
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case <-blocked:
	case <-time.After(time.Second):
		t.Fatal("cancelled delivery still blocked")
	}
	if st.delivered.Load() != 1 || st.dropped.Load() != 1 {
		t.Fatalf("delivered=%d dropped=%d, want 1/1", st.delivered.Load(), st.dropped.Load())
	}
}

// TestServeHandlerBeforeStart: an ops Handler mounted before Start serves
// 503 for stream-backed endpoints instead of panicking; health stays up.
func TestServeHandlerBeforeStart(t *testing.T) {
	clapModel, _ := fixture(t)
	srv, err := New(Config{Backend: loadModel(t, clapModel)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/metrics", "/v1/summary", "/v1/threshold"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET %s before Start: %s, want 503", path, resp.Status)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before Start: %s, want 200", resp.Status)
	}
	if srv.Threshold() != 0 {
		t.Fatalf("Threshold before Start = %v, want 0", srv.Threshold())
	}
	// The default tenant's threshold lives in its hot pair like every
	// tenant's, so one set before Start is installed there (Start keeps
	// it: nothing in this config calibrates or fixes another).
	if err := srv.SetThreshold("", 0.1); err != nil || srv.Threshold() != 0.1 {
		t.Fatalf("SetThreshold before Start: err=%v, threshold %v, want 0.1", err, srv.Threshold())
	}
}

// TestServeNewRejectsNegativeSizes: a negative worker count, queue depth,
// ring size or trace sampling rate fails New, naming the field, instead
// of quietly becoming that field's default; zero still takes the default.
// So does a drift level that would alert on every window: a non-finite
// quantile shift, or an FPR factor that is non-finite or in (0, 1).
func TestServeNewRejectsNegativeSizes(t *testing.T) {
	clapModel, _ := fixture(t)
	b := loadModel(t, clapModel)
	cases := []struct {
		field, value string // value names the subtest beside field ("": field alone)
		set          func(*Config)
	}{
		{"Workers", "", func(c *Config) { c.Workers = -2 }},
		{"QueueDepth", "", func(c *Config) { c.QueueDepth = -1 }},
		{"FlaggedRing", "", func(c *Config) { c.FlaggedRing = -1 }},
		{"TraceSample", "", func(c *Config) { c.TraceSample = -1 }},
		{"TraceRing", "", func(c *Config) { c.TraceRing = -5 }},
		{"DriftMaxShift", "NaN", func(c *Config) { c.DriftMaxShift = math.NaN() }},
		{"DriftMaxShift", "+Inf", func(c *Config) { c.DriftMaxShift = math.Inf(1) }},
		{"DriftMaxShift", "-Inf", func(c *Config) { c.DriftMaxShift = math.Inf(-1) }},
		{"DriftFPRFactor", "NaN", func(c *Config) { c.DriftFPRFactor = math.NaN() }},
		{"DriftFPRFactor", "+Inf", func(c *Config) { c.DriftFPRFactor = math.Inf(1) }},
		{"DriftFPRFactor", "-Inf", func(c *Config) { c.DriftFPRFactor = math.Inf(-1) }},
		{"DriftFPRFactor", "0.5", func(c *Config) { c.DriftFPRFactor = 0.5 }},
	}
	for _, tc := range cases {
		name := tc.field
		if tc.value != "" {
			name += "=" + tc.value
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Backend: b}
			tc.set(&cfg)
			if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("New with %s: err %v, want an error naming %s", name, err, tc.field)
			}
		})
	}
	// The rules' "off" and boundary values stay accepted.
	for _, cfg := range []Config{
		{Backend: b, DriftMaxShift: -1, DriftFPRFactor: -1},
		{Backend: b, DriftFPRFactor: 1},
	} {
		if _, err := New(cfg); err != nil {
			t.Fatalf("New(DriftMaxShift %v, DriftFPRFactor %v): %v", cfg.DriftMaxShift, cfg.DriftFPRFactor, err)
		}
	}
	srv, err := New(Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	if srv.cfg.QueueDepth != 256 || srv.cfg.FlaggedRing != 256 || srv.cfg.TraceRing != 256 {
		t.Fatalf("zero sizes: queue %d, flagged ring %d, trace ring %d; want the 256 defaults",
			srv.cfg.QueueDepth, srv.cfg.FlaggedRing, srv.cfg.TraceRing)
	}
}

// TestServeReloadRejectsBadModel: a failed reload must leave the current
// model serving.
func TestServeReloadRejectsBadModel(t *testing.T) {
	clapModel, _ := fixture(t)
	srv, err := New(Config{Backend: loadModel(t, clapModel), ModelPath: clapModel})
	if err != nil {
		t.Fatal(err)
	}
	srv.AddSource(clap.Soak(clap.SoakConfig{Connections: 1, Seed: 1}))
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	bad := filepath.Join(t.TempDir(), "bad.model")
	if err := os.WriteFile(bad, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Reload("", ReloadRequest{Path: bad}); err == nil {
		t.Fatal("reload of a corrupt model succeeded")
	}
	if srv.tenants[0].Hot.Tag() != clap.BackendCLAP || srv.tenants[0].Hot.Generation() != 0 {
		t.Fatalf("failed reload disturbed the live model: tag=%s gen=%d",
			srv.tenants[0].Hot.Tag(), srv.tenants[0].Hot.Generation())
	}
	if _, err := srv.Reload("", ReloadRequest{Path: "/definitely/not/here.model"}); err == nil {
		t.Fatal("reload of a missing file succeeded")
	}
}

// TestServeCascadeMetricsAndStage2Reload covers the tiered-serving ops
// surface: escalation counters in /metrics and /v1/summary while a
// cascade serves, a stage-2-only hot reload that grafts a bare expensive
// model into the live cascade (screen, escalation threshold and counters
// kept), and a full swap when the incoming tag matches neither shape.
func TestServeCascadeMetricsAndStage2Reload(t *testing.T) {
	clapModel, b1Model := fixture(t)

	// Build and calibrate the cascade offline, then persist it so the
	// server starts from the tagged file like an operator would.
	cascade, err := clap.NewCascade(loadModel(t, b1Model), loadModel(t, clapModel), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	calP, err := clap.NewPipeline(clap.WithBackend(cascade))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := calP.Calibrate(0.2, clap.TrafficGen(60, 5)); err != nil {
		t.Fatal(err)
	}
	cascadePath := filepath.Join(t.TempDir(), "cascade.model")
	if err := clap.SaveBackendFile(cascadePath, cascade); err != nil {
		t.Fatal(err)
	}

	const soakN = 30
	srv, err := New(Config{
		Backend:    loadModel(t, cascadePath),
		ModelPath:  cascadePath,
		QueueDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.AddSource(clap.Soak(clap.SoakConfig{Connections: soakN, Seed: 9, AttackFraction: 0.5}))
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	waitScored(t, srv, soakN)
	m := getMetrics(t, ts.URL)
	evaluated := m["clap_serve_cascade_evaluated_total"]
	escalated := m["clap_serve_cascade_escalated_total"]
	if evaluated != soakN {
		t.Fatalf("cascade_evaluated_total = %v, want %d", evaluated, soakN)
	}
	if escalated == 0 || escalated > evaluated {
		t.Fatalf("cascade_escalated_total = %v over %v evaluated; a half-attacked soak must escalate some but not require all", escalated, evaluated)
	}
	if frac := m["clap_serve_cascade_escalation_fraction"]; math.Abs(frac-escalated/evaluated) > 1e-9 {
		t.Fatalf("escalation fraction gauge %v, want %v", frac, escalated/evaluated)
	}

	var summary struct {
		Cascade *struct {
			Stage1              string  `json:"stage1"`
			Stage2              string  `json:"stage2"`
			EscalateFPR         float64 `json:"escalate_fpr"`
			EscalationThreshold float64 `json:"escalation_threshold"`
			Evaluated           uint64  `json:"evaluated"`
			Escalated           uint64  `json:"escalated"`
		} `json:"cascade"`
	}
	getJSON(t, ts.URL+"/v1/summary", &summary)
	if summary.Cascade == nil {
		t.Fatal("/v1/summary has no cascade block while a cascade serves")
	}
	if summary.Cascade.Stage1 != clap.BackendBaseline1 || summary.Cascade.Stage2 != clap.BackendCLAP {
		t.Fatalf("cascade stages %s+%s", summary.Cascade.Stage1, summary.Cascade.Stage2)
	}
	if summary.Cascade.EscalateFPR != 0.3 || summary.Cascade.EscalationThreshold <= 0 {
		t.Fatalf("cascade calibration in summary: %+v", summary.Cascade)
	}
	if summary.Cascade.Evaluated != soakN || summary.Cascade.Escalated != uint64(escalated) {
		t.Fatalf("summary counters %d/%d disagree with /metrics %v/%v",
			summary.Cascade.Escalated, summary.Cascade.Evaluated, escalated, evaluated)
	}

	// Stage-2-only reload: the incoming file holds a bare clap model, the
	// live cascade's expensive tag. The graft keeps the screen and state.
	escBefore, set := srv.tenants[0].Hot.Current().(*backend.Cascade).Escalation()
	if !set {
		t.Fatal("serving cascade lost its escalation threshold")
	}
	resp, err := http.Post(ts.URL+"/v1/reload", "application/json",
		strings.NewReader(fmt.Sprintf(`{"path": %q}`, clapModel)))
	if err != nil {
		t.Fatal(err)
	}
	var reload struct {
		Old ReloadInfo `json:"old"`
		New ReloadInfo `json:"new"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reload); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stage-2 reload: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	if reload.Old.Tag != clap.BackendCascade || reload.New.Tag != clap.BackendCascade {
		t.Fatalf("stage-2 reload swapped the cascade away: %s -> %s", reload.Old.Tag, reload.New.Tag)
	}
	grafted, ok := srv.tenants[0].Hot.Current().(*backend.Cascade)
	if !ok {
		t.Fatalf("after stage-2 reload the live backend is %q, want a cascade", srv.tenants[0].Hot.Tag())
	}
	if escAfter, set := grafted.Escalation(); !set || escAfter != escBefore {
		t.Fatalf("graft moved the escalation threshold: %v -> %v (set=%v)", escBefore, escAfter, set)
	}
	if ev, _ := grafted.EscalationCounts(); ev != soakN {
		t.Fatalf("graft reset the escalation counters: evaluated %d, want %d", ev, soakN)
	}
	if srv.tenants[0].Hot.Generation() != 1 {
		t.Fatalf("generation after stage-2 reload = %d, want 1", srv.tenants[0].Hot.Generation())
	}

	// A bare model of a non-stage-2 tag is a full swap: the cascade (and
	// its metrics exposition) goes away.
	resp, err = http.Post(ts.URL+"/v1/reload", "application/json",
		strings.NewReader(fmt.Sprintf(`{"path": %q}`, b1Model)))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&reload); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("full-swap reload: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	if reload.New.Tag != clap.BackendBaseline1 {
		t.Fatalf("full swap landed on %q, want baseline1", reload.New.Tag)
	}
	m2 := getMetrics(t, ts.URL)
	if _, ok := m2["clap_serve_cascade_evaluated_total"]; ok {
		t.Fatal("cascade counters still exposed after swapping to a single-stage backend")
	}
}
