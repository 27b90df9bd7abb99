package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"clap"
	"clap/internal/tenant"
)

// twoTenantServer builds a server with the default tenant plus named
// tenants a and b, each fed by its own channel source.
func twoTenantServer(t *testing.T, cfg Config, quotaA, quotaB tenant.Quota) (*Server, *chanSource, *chanSource) {
	t.Helper()
	clapModel, b1Model := fixture(t)
	if cfg.Backend == nil {
		cfg.Backend = loadModel(t, clapModel)
	}
	cfg.Tenants = append(cfg.Tenants,
		TenantConfig{Name: "a", Backend: loadModel(t, clapModel), Quota: quotaA},
		TenantConfig{Name: "b", Backend: loadModel(t, b1Model), Quota: quotaB},
	)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcA := &chanSource{name: "srcA", ch: make(chan *clap.Connection, 2048)}
	srcB := &chanSource{name: "srcB", ch: make(chan *clap.Connection, 2048)}
	if err := srv.AddTenantSource("a", srcA); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddTenantSource("b", srcB); err != nil {
		t.Fatal(err)
	}
	return srv, srcA, srcB
}

// TestServeTenantFairShareShedding: tenant a floods at far over its
// quota while tenant b trickles under an unlimited one. a must shed its
// own overload; b must not lose a single connection. Run under -race in
// CI.
func TestServeTenantFairShareShedding(t *testing.T) {
	const floodN, politeN = 1000, 100
	srv, srcA, srcB := twoTenantServer(t, Config{
		QueueDepth:  64,
		DriftWindow: -1,
	}, tenant.Quota{MaxInFlight: 8, Rate: 50, Burst: 8}, tenant.Quota{})

	flood := clap.GenerateBenign(floodN, 11)
	polite := clap.GenerateBenign(politeN, 12)
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, c := range flood {
			srcA.ch <- c
		}
		close(srcA.ch)
	}()
	go func() {
		defer wg.Done()
		for _, c := range polite {
			srcB.ch <- c
		}
		close(srcB.ch)
	}()
	wg.Wait()

	ta, tb := srv.byName["a"], srv.byName["b"]
	// Both sources have delivered or shed everything; wait for the
	// admitted connections to clear the stream, then drain.
	deadline := time.Now().Add(2 * time.Minute)
	for ta.Delivered.Load()+ta.Shed.Load() < floodN || tb.Delivered.Load()+tb.Shed.Load() < politeN {
		if time.Now().After(deadline) {
			t.Fatalf("sources never finished: a=%d+%d b=%d+%d",
				ta.Delivered.Load(), ta.Shed.Load(), tb.Delivered.Load(), tb.Shed.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The polite tenant is untouched by its neighbour's flood: nothing
	// shed, everything delivered and scored.
	if got := tb.Shed.Load(); got != 0 {
		t.Fatalf("tenant b shed %d connections during a's flood, want 0", got)
	}
	if got := tb.Delivered.Load(); got != politeN {
		t.Fatalf("tenant b delivered %d, want %d", got, politeN)
	}
	if got := tb.Scored.Load(); got != politeN {
		t.Fatalf("tenant b scored %d, want %d", got, politeN)
	}
	// The flooding tenant shed the bulk of its own overload (its burst
	// plus a few seconds of token refill get through).
	if shed := ta.Shed.Load(); shed < floodN*9/10 {
		t.Fatalf("tenant a shed %d of %d, want >= 90%%", shed, floodN)
	}
	if got := ta.Delivered.Load() + ta.Shed.Load(); got != floodN {
		t.Fatalf("tenant a delivered+shed = %d, want %d", got, floodN)
	}
	if got := ta.Scored.Load(); got != ta.Delivered.Load() {
		t.Fatalf("tenant a scored %d of %d delivered", got, ta.Delivered.Load())
	}
	if got := ta.InFlight(); got != 0 {
		t.Fatalf("tenant a in-flight %d after drain, want 0", got)
	}
}

// TestServeTenantReloadAtomicity ports the single-tenant reload
// atomicity soak to two tenants reloading concurrently: each tenant
// alternates between the same two model files but calibrates to its own
// FPR target, so its legal (model, threshold) bindings differ from its
// neighbour's. No verdict may ever pair one tenant's model with the
// other's threshold. Run under -race in CI.
func TestServeTenantReloadAtomicity(t *testing.T) {
	clapModel, b1Model := fixture(t)
	fprs := map[string]float64{"a": 0.2, "b": 0.4}

	calibPcap := filepath.Join(t.TempDir(), "calib.pcap")
	if err := clap.WritePCAPFile(calibPcap, clap.GenerateBenign(40, 5), false); err != nil {
		t.Fatal(err)
	}
	expectTh := func(path string, fpr float64) float64 {
		t.Helper()
		p, err := clap.NewPipeline(clap.WithBackend(loadModel(t, path)))
		if err != nil {
			t.Fatal(err)
		}
		cal, err := p.Calibrate(fpr, clap.PCAPFile(calibPcap))
		if err != nil {
			t.Fatal(err)
		}
		return cal.Threshold
	}
	// Each tenant's two legal thresholds, and the discrimination check:
	// a crossed binding (tenant a's model, tenant b's threshold) must
	// fail both of a's legal arms, which needs the per-model thresholds
	// to differ across tenants.
	th := map[string][2]float64{}
	for name, fpr := range fprs {
		th[name] = [2]float64{expectTh(clapModel, fpr), expectTh(b1Model, fpr)}
	}
	if th["a"][0] == th["b"][0] || th["a"][1] == th["b"][1] {
		t.Fatalf("FPR targets %v did not discriminate thresholds: %v", fprs, th)
	}

	const soakN = 200
	type verdict struct {
		score   float64
		flagged bool
		prov    *clap.Decision
	}
	var mu sync.Mutex
	scored := map[string]map[*clap.Connection]verdict{
		"a": make(map[*clap.Connection]verdict, soakN),
		"b": make(map[*clap.Connection]verdict, soakN),
	}
	srv, err := New(Config{
		Backend:     loadModel(t, clapModel),
		QueueDepth:  16,
		DriftWindow: -1,
		TraceSample: 1, // every verdict carries provenance under the soak
		OnResult: func(r clap.Result) {
			name := r.Conn.Tenant
			if name == "" {
				return
			}
			mu.Lock()
			scored[name][r.Conn] = verdict{score: r.Score, flagged: r.Flagged, prov: r.Prov}
			mu.Unlock()
		},
		Tenants: []TenantConfig{
			{Name: "a", Backend: loadModel(t, clapModel), ModelPath: clapModel,
				Calibration: clap.PCAPFile(calibPcap), FPR: fprs["a"]},
			{Name: "b", Backend: loadModel(t, clapModel), ModelPath: clapModel,
				Calibration: clap.PCAPFile(calibPcap), FPR: fprs["b"]},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, seed := range map[string]int64{"a": 21, "b": 22} {
		if err := srv.AddTenantSource(name, clap.Soak(clap.SoakConfig{
			Connections: soakN, Seed: seed, AttackFraction: 0.4, Rate: 150,
		})); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Every (model tag, generation, threshold) triple a tenant's Hot pair
	// ever legally published: the startup pair, then each reload's "new"
	// side. A verdict's provenance must land exactly on one of these —
	// anything else is a torn read across the atomic swap.
	type binding struct {
		tag string
		gen uint64
		th  float64
	}
	legal := map[string]map[binding]bool{}
	for name := range fprs {
		st := srv.byName[name]
		if got := st.Threshold(); got != th[name][0] {
			t.Fatalf("tenant %s startup threshold %v, offline derivation %v", name, got, th[name][0])
		}
		legal[name] = map[binding]bool{
			{tag: st.Hot.Tag(), gen: st.Hot.Generation(), th: st.Threshold()}: true,
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Both tenants hammer reload-with-calibration concurrently while
	// their soaks score.
	var hammer sync.WaitGroup
	for name := range fprs {
		hammer.Add(1)
		go func(name string) {
			defer hammer.Done()
			paths := []string{b1Model, clapModel}
			reloads := 0
			for srv.byName[name].Scored.Load() < soakN {
				body := fmt.Sprintf(`{"path": %q, "calibration": %q, "fpr": %g}`,
					paths[reloads%2], calibPcap, fprs[name])
				resp, err := http.Post(ts.URL+"/v1/reload?tenant="+name, "application/json",
					strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var res struct {
					New ReloadInfo `json:"new"`
				}
				decErr := json.NewDecoder(resp.Body).Decode(&res)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					t.Errorf("tenant %s reload %d: %s (%v)", name, reloads, resp.Status, decErr)
					return
				}
				mu.Lock()
				legal[name][binding{tag: res.New.Tag, gen: res.New.Generation, th: res.New.Threshold}] = true
				mu.Unlock()
				reloads++
			}
			if reloads < 2 {
				t.Errorf("tenant %s: only %d reloads landed while scoring", name, reloads)
			}
		}(name)
	}
	hammer.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}

	// Verdict check: every result must be consistent with one of ITS
	// OWN tenant's two legal (model, threshold) bindings. A cross-tenant
	// threshold leak fails both arms because the FPR targets differ.
	a, b := loadModel(t, clapModel), loadModel(t, b1Model)
	mu.Lock()
	defer mu.Unlock()
	for name, verdicts := range scored {
		if len(verdicts) != soakN {
			t.Fatalf("tenant %s scored %d connections, want %d", name, len(verdicts), soakN)
		}
		thA, thB := th[name][0], th[name][1]
		seenA, seenB := 0, 0
		for c, v := range verdicts {
			sa, sb := a.ScoreConn(c), b.ScoreConn(c)
			okA := v.score == sa && v.flagged == (sa >= thA)
			okB := v.score == sb && v.flagged == (sb >= thB)
			switch {
			case okA:
				seenA++
			case okB:
				seenB++
			default:
				t.Fatalf("tenant %s: crossed (model, threshold) pairing: score=%v flagged=%v (A: score %v th %v, B: score %v th %v)",
					name, v.score, v.flagged, sa, thA, sb, thB)
			}

			// Provenance: the verdict's recorded (model tag, generation,
			// threshold, tenant) binding must be one its tenant's Hot pair
			// actually published, read in one consistent view.
			d := v.prov
			if d == nil {
				t.Fatalf("tenant %s: verdict carries no provenance under TraceSample 1", name)
			}
			if d.Tenant != name {
				t.Fatalf("tenant %s: provenance attributed to tenant %q", name, d.Tenant)
			}
			if d.Score != v.score || d.Flagged != v.flagged {
				t.Fatalf("tenant %s: provenance verdict (%v, %v) disagrees with the emitted (%v, %v)",
					name, d.Score, d.Flagged, v.score, v.flagged)
			}
			got := binding{tag: d.Model, gen: d.Generation, th: d.Threshold}
			if !legal[name][got] {
				t.Fatalf("tenant %s: provenance binding %+v matches no published Hot pair %v",
					name, got, legal[name])
			}
			if v.flagged != (v.score >= d.Threshold) {
				t.Fatalf("tenant %s: flagged=%v inconsistent with recorded threshold %v and score %v",
					name, v.flagged, d.Threshold, v.score)
			}
		}
		if seenA == 0 || seenB == 0 {
			t.Fatalf("tenant %s: both models must serve during the hammer: A scored %d, B scored %d",
				name, seenA, seenB)
		}
	}
}

// TestServeSingleTenantCompat pins the compatibility contract: without
// Tenants configured, nothing tenant-shaped leaks into the ops surface —
// no tenant="..." series in /metrics, no tenant keys in /healthz,
// /v1/summary or /v1/flagged bodies.
func TestServeSingleTenantCompat(t *testing.T) {
	clapModel, _ := fixture(t)
	src := &chanSource{name: "compat", ch: make(chan *clap.Connection, 64)}
	srv, err := New(Config{
		Backend:     loadModel(t, clapModel),
		Threshold:   0.0001, // everything flags: exercises the flagged path
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
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	for _, path := range []string{"/healthz", "/metrics", "/v1/flagged", "/v1/summary", "/v1/drift", "/v1/tenants"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
		}
		if path == "/v1/tenants" {
			// The introspection endpoint itself names the default tenant.
			continue
		}
		for _, leak := range []string{`tenant="`, `"tenant"`, `"tenants"`, `"in_flight"`, `"shed"`} {
			if strings.Contains(string(body), leak) {
				t.Fatalf("GET %s leaked %s into a single-tenant body:\n%s", path, leak, body)
			}
		}
	}
	var tl struct {
		Tenants []struct {
			Name    string `json:"name"`
			Default bool   `json:"default"`
		} `json:"tenants"`
	}
	getJSON(t, ts.URL+"/v1/tenants", &tl)
	if len(tl.Tenants) != 1 || tl.Tenants[0].Name != DefaultTenant || !tl.Tenants[0].Default {
		t.Fatalf("single-tenant /v1/tenants = %+v, want just the default tenant", tl.Tenants)
	}
}

// TestServeTenantBatchFillParity: four lightly-loaded tenants sharing one
// model instance — sharing the engine — batch across tenant boundaries:
// the shared stream's batch fill on the same aggregate load stays within
// 10% of a single-tenant run. Tenants with model instances of their own
// never share a batch: each of their verdicts equals its own model's
// serial score bit for bit.
func TestServeTenantBatchFillParity(t *testing.T) {
	clapModel, b1Model := fixture(t)
	const perTenant, tenantsN = 20, 4
	total := perTenant * tenantsN

	// run serves the aggregate load as the default tenant alone (models
	// nil) or spread over one tenant per model, and returns the stream's
	// batch fill and every verdict.
	run := func(models []clap.Backend) (float64, []clap.Result) {
		var mu sync.Mutex
		var results []clap.Result
		cfg := Config{
			Backend:     loadModel(t, clapModel),
			Threshold:   0.5,
			QueueDepth:  256,
			DriftWindow: -1,
			OnResult: func(r clap.Result) {
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			},
		}
		names := []string{""}
		if models != nil {
			names = names[:0]
			for i, m := range models {
				name := fmt.Sprintf("t%d", i)
				names = append(names, name)
				cfg.Tenants = append(cfg.Tenants, TenantConfig{Name: name, Backend: m, Threshold: 0.5})
			}
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		conns := clap.GenerateBenign(total, 9)
		for i, name := range names {
			src := &chanSource{name: "src" + name, ch: make(chan *clap.Connection, total)}
			// Pre-fill and close before Start so ingest dumps the whole
			// load back-to-back in both modes.
			share := conns
			if models != nil {
				share = conns[i*perTenant : (i+1)*perTenant]
			}
			for _, c := range share {
				src.ch <- c.Clone()
			}
			close(src.ch)
			if name == "" {
				srv.AddSource(src)
			} else if err := srv.AddTenantSource(name, src); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		waitScored(t, srv, uint64(total))
		fill := srv.streamOrNil().BatchFill()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		return fill, results
	}

	single, _ := run(nil)
	shared := loadModel(t, clapModel)
	multi, _ := run([]clap.Backend{shared, shared, shared, shared})
	if single <= 0 || multi <= 0 {
		t.Fatalf("batch fill must be positive: single=%v multi=%v", single, multi)
	}
	if diff := (multi - single) / single; diff < -0.10 {
		t.Fatalf("cross-tenant batch fill %.3f regressed more than 10%% below single-tenant %.3f", multi, single)
	}

	// Distinct instances, and of two kinds whose windows differ in width:
	// a batch that mixed them could not even run.
	own := make([]clap.Backend, tenantsN)
	for i := range own {
		own[i] = loadModel(t, []string{clapModel, b1Model}[i%2])
	}
	_, results := run(own)
	if len(results) != total {
		t.Fatalf("distinct instances: %d verdicts, want %d", len(results), total)
	}
	for _, r := range results {
		var i int
		if _, err := fmt.Sscanf(r.Conn.Tenant, "t%d", &i); err != nil {
			t.Fatalf("verdict for unknown tenant %q", r.Conn.Tenant)
		}
		want := own[i].(*clap.CLAPBackend).Detector().Score(r.Conn).Adversarial
		if math.Float64bits(r.Score) != math.Float64bits(want) {
			t.Fatalf("tenant %s: verdict %v, its own model's serial score %v", r.Conn.Tenant, r.Score, want)
		}
	}
}

// TestServeTenantAPIScoping covers the scoped ops surface: per-tenant
// flagged rings stay bounded, scoped endpoints report the right tenant,
// the merged flagged view is timestamp-ordered, thresholds move
// independently, and unknown tenants 404.
func TestServeTenantAPIScoping(t *testing.T) {
	srv, srcA, srcB := twoTenantServer(t, Config{
		Threshold:   0.0001, // everything flags, filling the rings
		FlaggedRing: 4,
		DriftWindow: -1,
	}, tenant.Quota{}, tenant.Quota{})
	for _, tc := range []struct {
		src *chanSource
		n   int
	}{{srcA, 12}, {srcB, 3}} {
		for _, c := range clap.GenerateBenign(tc.n, 7) {
			tc.src.ch <- c
		}
		close(tc.src.ch)
	}
	// Named tenants need a threshold too: install fixed ones.
	if err := srv.SetThreshold("a", 0.0001); err != nil {
		t.Fatal(err)
	}
	if err := srv.SetThreshold("b", 0.0001); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitScored(t, srv, 15)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	// Per-tenant rings are bounded independently: a overflowed its ring
	// of 4, b kept all 3 of its entries despite a's volume.
	var fa struct {
		Tenant  string        `json:"tenant"`
		Flagged []FlaggedConn `json:"flagged"`
		Total   uint64        `json:"total_flagged"`
	}
	getJSON(t, ts.URL+"/v1/flagged?tenant=a", &fa)
	if fa.Tenant != "a" || len(fa.Flagged) != 4 || fa.Total != 12 {
		t.Fatalf("tenant a flagged: tenant=%q len=%d total=%d, want a/4/12", fa.Tenant, len(fa.Flagged), fa.Total)
	}
	for _, fc := range fa.Flagged {
		if fc.Tenant != "a" {
			t.Fatalf("tenant a's scoped feed leaked a %q entry", fc.Tenant)
		}
	}
	var fb struct {
		Flagged []FlaggedConn `json:"flagged"`
		Total   uint64        `json:"total_flagged"`
	}
	getJSON(t, ts.URL+"/v1/flagged?tenant=b", &fb)
	if len(fb.Flagged) != 3 || fb.Total != 3 {
		t.Fatalf("tenant b flagged: len=%d total=%d, want 3/3", len(fb.Flagged), fb.Total)
	}

	// The merged view is capped, merged across tenants in timestamp order.
	var merged struct {
		Flagged []FlaggedConn `json:"flagged"`
		Total   uint64        `json:"total_flagged"`
	}
	getJSON(t, ts.URL+"/v1/flagged", &merged)
	if len(merged.Flagged) != 7 || merged.Total != 15 {
		t.Fatalf("merged flagged: len=%d total=%d, want 7/15", len(merged.Flagged), merged.Total)
	}
	seen := map[string]bool{}
	for i, fc := range merged.Flagged {
		seen[fc.Tenant] = true
		if i > 0 && fc.Time.Before(merged.Flagged[i-1].Time) {
			t.Fatalf("merged flagged out of timestamp order at %d", i)
		}
	}
	if !seen["a"] || !seen["b"] {
		t.Fatalf("merged flagged view missing a tenant: %v", seen)
	}

	// Thresholds move independently: adjusting b leaves a and the
	// default tenant alone.
	put := func(url string, body string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT %s: %s", url, resp.Status)
		}
	}
	put(ts.URL+"/v1/threshold?tenant=b", `{"threshold": 0.42}`)
	if got := srv.byName["b"].Threshold(); got != 0.42 {
		t.Fatalf("tenant b threshold %v, want 0.42", got)
	}
	if got := srv.byName["a"].Threshold(); got != 0.0001 {
		t.Fatalf("tenant a threshold moved to %v", got)
	}
	if got := srv.Threshold(); got != 0.0001 {
		t.Fatalf("default threshold moved to %v", got)
	}

	// Unknown tenants 404 on every scoped endpoint.
	for _, path := range []string{"/v1/flagged", "/v1/summary", "/v1/drift", "/v1/threshold"} {
		resp, err := http.Get(ts.URL + path + "?tenant=nope")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s?tenant=nope: %s, want 404", path, resp.Status)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/reload?tenant=nope", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/reload?tenant=nope: %s, want 404", resp.Status)
	}

	// /v1/tenants lists all three.
	var tl struct {
		Tenants []struct {
			Name string `json:"name"`
		} `json:"tenants"`
	}
	getJSON(t, ts.URL+"/v1/tenants", &tl)
	names := map[string]bool{}
	for _, e := range tl.Tenants {
		names[e.Name] = true
	}
	if len(tl.Tenants) != 3 || !names[DefaultTenant] || !names["a"] || !names["b"] {
		t.Fatalf("/v1/tenants = %+v, want default, a, b", tl.Tenants)
	}
}

// TestServeTenantConfigValidation: reserved and duplicate tenant names,
// and invalid quotas, are rejected at construction.
func TestServeTenantConfigValidation(t *testing.T) {
	clapModel, _ := fixture(t)
	mk := func(tcs ...TenantConfig) error {
		_, err := New(Config{Backend: loadModel(t, clapModel), Tenants: tcs})
		return err
	}
	if err := mk(TenantConfig{Name: "default", Backend: loadModel(t, clapModel)}); err == nil {
		t.Fatal("reserved tenant name accepted")
	}
	if err := mk(TenantConfig{Name: ""}); err == nil {
		t.Fatal("empty tenant name accepted")
	}
	if err := mk(
		TenantConfig{Name: "x", Backend: loadModel(t, clapModel)},
		TenantConfig{Name: "x", Backend: loadModel(t, clapModel)},
	); err == nil {
		t.Fatal("duplicate tenant name accepted")
	}
	if err := mk(TenantConfig{Name: "x"}); err == nil {
		t.Fatal("tenant without a backend accepted")
	}
	if err := mk(TenantConfig{Name: "x", Backend: loadModel(t, clapModel),
		Quota: tenant.Quota{MaxInFlight: -1}}); err == nil {
		t.Fatal("invalid quota accepted")
	}
	srv, err := New(Config{Backend: loadModel(t, clapModel)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddTenantSource("ghost", &chanSource{name: "x", ch: make(chan *clap.Connection)}); err == nil {
		t.Fatal("AddTenantSource accepted an unknown tenant")
	}
}
