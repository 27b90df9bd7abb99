package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"clap"
	"clap/internal/backend"
)

// scaledBackend multiplies an inner model's anomaly scores by a constant
// — the test's stand-in for a silent score-scale drift (the deployed
// model's behaviour changing without any operator action). It scores
// through the inner model's batched pair and scales what ScoreWindows
// returns. Summarize delegates: the reduction is homogeneous, so scaled
// window errors summarize to the scaled connection score and the Backend
// contract holds.
type scaledBackend struct {
	inner  clap.Backend
	factor float64
}

func (s *scaledBackend) Tag() string      { return s.inner.Tag() }
func (s *scaledBackend) Describe() string { return s.inner.Describe() + " (scaled)" }
func (s *scaledBackend) WindowSpan() int  { return s.inner.WindowSpan() }
func (s *scaledBackend) Trained() bool    { return s.inner.Trained() }
func (s *scaledBackend) Train(benign []*clap.Connection, logf backend.Logf) error {
	return s.inner.Train(benign, logf)
}
func (s *scaledBackend) ScoreConn(c *clap.Connection) float64 {
	score, _ := s.Summarize(backend.WindowErrors(s, c))
	return score
}
func (s *scaledBackend) Windows(c *clap.Connection) [][]float64 {
	return s.inner.(backend.BatchScorer).Windows(c)
}
func (s *scaledBackend) ScoreWindows(wins [][]float64) []float64 {
	errs := s.inner.(backend.BatchScorer).ScoreWindows(wins)
	for i := range errs {
		errs[i] *= s.factor
	}
	return errs
}
func (s *scaledBackend) Summarize(errs []float64) (float64, int) { return s.inner.Summarize(errs) }
func (s *scaledBackend) Save(w io.Writer) error                  { return s.inner.Save(w) }

// driftJSON mirrors the /v1/drift payload.
type driftJSON struct {
	Drift struct {
		Observed     uint64  `json:"observed"`
		LiveCount    uint64  `json:"live_count"`
		OperatingFPR float64 `json:"operating_fpr"`
		TargetFPR    float64 `json:"target_fpr"`
		Drift        float64 `json:"drift"`
		Reference    bool    `json:"reference"`
		Alert        bool    `json:"alert"`
		Reason       string  `json:"reason"`
	} `json:"drift"`
	AlertsTotal uint64 `json:"alerts_total"`
	Model       struct {
		Tag        string `json:"tag"`
		Generation uint64 `json:"generation"`
	} `json:"model"`
}

func getDrift(t *testing.T, base string) driftJSON {
	t.Helper()
	var d driftJSON
	getJSON(t, base+"/v1/drift", &d)
	return d
}

// TestServeDriftEndToEnd is the acceptance scenario for the calibration
// subsystem: a mid-run score-scale shift (injected via a scaled backend
// wrapper swapped into the hot handle, exactly the silent drift a reload
// cannot announce) must move the clap_serve_drift gauge and fire the
// drift alert within a bounded number of connections; /v1/drift must
// report the shift; a live recalibration through /v1/reload must restore
// the estimated operating FPR to the target; and an unshifted run must
// never alert. The calibration snapshot is persisted and restored across
// a daemon restart.
func TestServeDriftEndToEnd(t *testing.T) {
	clapModel, _ := fixture(t)
	const (
		window    = 40
		targetFPR = 0.25
	)
	calFile := filepath.Join(t.TempDir(), "clap.model.calib")

	var mu sync.Mutex
	var alerts []DriftStatus
	feed := &chanSource{name: "feed", ch: make(chan *clap.Connection, 64)}

	b := loadModel(t, clapModel)
	srv, err := New(Config{
		Backend:             b,
		ModelPath:           clapModel,
		CalibrationSnapshot: calibrated(t, b, targetFPR, clap.TrafficGen(120, 5)),
		CalibrationFile:     calFile,
		DriftWindow:         window,
		DriftWindows:        2,
		OnDriftAlert: func(_ string, st DriftStatus) {
			mu.Lock()
			alerts = append(alerts, st)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.AddSource(feed)
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	staleTh := srv.Threshold()
	if staleTh <= 0 {
		t.Fatalf("calibrated threshold = %v", staleTh)
	}
	if _, err := os.Stat(calFile); err != nil {
		t.Fatalf("calibration snapshot not persisted at startup: %v", err)
	}

	fed := 0
	feedBenign := func(n int, seed int64) {
		t.Helper()
		for _, c := range clap.GenerateBenign(n, seed) {
			feed.ch <- c
		}
		fed += n
		waitScored(t, srv, uint64(fed))
	}

	// Phase 1 — unshifted: two full windows of benign traffic from the
	// calibration distribution must not alert.
	feedBenign(window, 101)
	feedBenign(window, 102)
	d := getDrift(t, ts.URL)
	if d.Drift.Alert || d.AlertsTotal != 0 {
		t.Fatalf("unshifted run alerted: %+v", d)
	}
	if !d.Drift.Reference {
		t.Fatal("drift status reports no calibration reference")
	}
	if d.Drift.Drift > 0.4 {
		t.Fatalf("unshifted drift statistic = %v", d.Drift.Drift)
	}
	if d.Drift.OperatingFPR > 2.5*targetFPR {
		t.Fatalf("unshifted operating FPR = %v at target %v", d.Drift.OperatingFPR, targetFPR)
	}
	mu.Lock()
	if len(alerts) != 0 {
		mu.Unlock()
		t.Fatalf("unshifted run fired %d alert hooks", len(alerts))
	}
	mu.Unlock()

	// Phase 2 — inject the drift: the serving model silently becomes a
	// 4x-scaled version of itself (hot.Swap carries the stale threshold
	// over — nothing announces the change to the calibration).
	if _, err := srv.tenants[0].Hot.Swap(&scaledBackend{inner: loadModel(t, clapModel), factor: 4}); err != nil {
		t.Fatal(err)
	}
	feedBenign(window, 201)
	feedBenign(window, 202)
	feedBenign(window, 203)
	feedBenign(window, 204)

	mu.Lock()
	nAlerts := len(alerts)
	var first DriftStatus
	if nAlerts > 0 {
		first = alerts[0]
	}
	mu.Unlock()
	if nAlerts != 1 {
		t.Fatalf("shift fired %d alert hooks within %d connections, want exactly 1 (edge-triggered)", nAlerts, 4*window)
	}
	if !first.Alert || first.Reason == "" {
		t.Fatalf("malformed alert status: %+v", first)
	}
	d = getDrift(t, ts.URL)
	if !d.Drift.Alert || d.AlertsTotal != 1 {
		t.Fatalf("/v1/drift after shift: %+v", d)
	}
	if d.Drift.Drift <= 0.5 {
		t.Fatalf("4x scale shift moved drift only to %v", d.Drift.Drift)
	}
	if d.Drift.OperatingFPR <= 2*targetFPR {
		t.Fatalf("operating FPR %v did not decay under the stale threshold", d.Drift.OperatingFPR)
	}
	m := getMetrics(t, ts.URL)
	if m["clap_serve_drift"] <= 0.5 {
		t.Fatalf("clap_serve_drift gauge = %v after shift", m["clap_serve_drift"])
	}
	if m["clap_serve_drift_alerts_total"] != 1 || m["clap_serve_drift_alerting"] != 1 {
		t.Fatalf("drift alert metrics: alerts=%v alerting=%v",
			m["clap_serve_drift_alerts_total"], m["clap_serve_drift_alerting"])
	}
	if m["clap_serve_operating_fpr"] != d.Drift.OperatingFPR {
		t.Fatalf("gauge/endpoint operating FPR disagree: %v vs %v",
			m["clap_serve_operating_fpr"], d.Drift.OperatingFPR)
	}

	// Phase 3 — atomic live recalibration: /v1/reload with the "live"
	// calibration source re-derives the threshold from the recent sketch
	// state, keeping the model (and its generation) in place.
	genBefore := srv.tenants[0].Hot.Generation()
	resp, err := http.Post(ts.URL+"/v1/reload", "application/json",
		strings.NewReader(`{"calibration": "live"}`))
	if err != nil {
		t.Fatal(err)
	}
	var reload struct {
		Old, New     ReloadInfo
		Recalibrated bool
	}
	if err := json.NewDecoder(resp.Body).Decode(&reload); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("live recalibration: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	if !reload.Recalibrated {
		t.Fatal("reload response does not report recalibration")
	}
	if reload.New.Threshold <= staleTh {
		t.Fatalf("recalibrated threshold %v not above stale %v after a 4x upward shift",
			reload.New.Threshold, staleTh)
	}
	if srv.tenants[0].Hot.Generation() != genBefore {
		t.Fatal("in-place recalibration bumped the model generation")
	}
	if got := srv.Threshold(); got != reload.New.Threshold {
		t.Fatalf("live threshold %v != reload response %v", got, reload.New.Threshold)
	}

	// The persisted snapshot now carries the recalibrated state.
	saved, err := clap.LoadCalibrationFile(calFile)
	if err != nil {
		t.Fatalf("reloading persisted snapshot: %v", err)
	}
	if saved.Threshold != reload.New.Threshold || saved.Tag != clap.BackendCLAP {
		t.Fatalf("persisted snapshot: threshold %v tag %q, want %v %q",
			saved.Threshold, saved.Tag, reload.New.Threshold, clap.BackendCLAP)
	}

	// Phase 4 — recovery: under the recalibrated threshold the same
	// shifted traffic operates at the target FPR again and stays quiet.
	feedBenign(window, 301)
	feedBenign(window, 302)
	d = getDrift(t, ts.URL)
	if d.Drift.Alert {
		t.Fatalf("alert still latched after recalibration: %+v", d)
	}
	if d.AlertsTotal != 1 {
		t.Fatalf("recovery fired extra alerts: %d", d.AlertsTotal)
	}
	if fpr := d.Drift.OperatingFPR; fpr < targetFPR/3 || fpr > targetFPR*3 {
		t.Fatalf("post-recalibration operating FPR %v not within tolerance of target %v", fpr, targetFPR)
	}

	close(feed.ch)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Phase 5 — restart: a fresh daemon with no calibration source
	// restores threshold and reference distribution from the snapshot
	// file, so drift monitoring resumes with the same baseline.
	srv2, err := New(Config{
		Backend:         loadModel(t, clapModel),
		ModelPath:       clapModel,
		CalibrationFile: calFile,
		DriftWindow:     window,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv2.AddSource(clap.Soak(clap.SoakConfig{Connections: 1, Seed: 1}))
	if err := srv2.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
	}()
	if got := srv2.Threshold(); got != saved.Threshold {
		t.Fatalf("restart restored threshold %v, snapshot has %v", got, saved.Threshold)
	}
	if st, ok := srv2.DriftStatus(); !ok || !st.Reference || st.TargetFPR != targetFPR {
		t.Fatalf("restart did not restore the drift reference: ok=%v st=%+v", ok, st)
	}

	// Phase 6 — restart with an explicit fixed threshold: the snapshot
	// contributes only its reference distribution; its threshold AND its
	// FPR target are overridden/dropped, so the FPR rules cannot alert
	// against a target the operator opted out of.
	srv3, err := New(Config{
		Backend:         loadModel(t, clapModel),
		Threshold:       9.5,
		CalibrationFile: calFile,
		DriftWindow:     window,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv3.AddSource(clap.Soak(clap.SoakConfig{Connections: 1, Seed: 2}))
	if err := srv3.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv3.Shutdown(ctx)
	}()
	if got := srv3.Threshold(); got != 9.5 {
		t.Fatalf("explicit threshold %v lost to the snapshot's", got)
	}
	if st, ok := srv3.DriftStatus(); !ok || !st.Reference || st.TargetFPR != 0 {
		t.Fatalf("threshold override must keep the reference but drop the FPR target: %+v", st)
	}
}

// TestServeReloadCalibrationAtomicity hammers reload-with-calibration
// (alternating between two model files, each recalibrated against the
// same benign pcap) concurrently with scoring, and asserts that no
// emitted verdict was ever produced by a crossed pairing: every result's
// score identifies the model that produced it, and its flag must match
// exactly that model's calibrated threshold. Run under -race in CI.
func TestServeReloadCalibrationAtomicity(t *testing.T) {
	clapModel, b1Model := fixture(t)
	const targetFPR = 0.25

	calibPcap := filepath.Join(t.TempDir(), "calib.pcap")
	if err := clap.WritePCAPFile(calibPcap, clap.GenerateBenign(40, 5), false); err != nil {
		t.Fatal(err)
	}

	// The expected (model, threshold) bindings, derived offline through
	// the same deterministic calibration path the server uses.
	expectTh := func(path string) float64 {
		t.Helper()
		return calibrated(t, loadModel(t, path), targetFPR, clap.PCAPFile(calibPcap)).Threshold
	}
	thA, thB := expectTh(clapModel), expectTh(b1Model)
	if thA == thB {
		t.Fatalf("test needs discriminating thresholds, got %v for both models", thA)
	}

	const soakN = 300
	type verdict struct {
		score   float64
		flagged bool
	}
	var mu sync.Mutex
	scored := make(map[*clap.Connection]verdict, soakN)

	b := loadModel(t, clapModel)
	srv, err := New(Config{
		Backend:             b,
		ModelPath:           clapModel,
		CalibrationSnapshot: calibrated(t, b, targetFPR, clap.PCAPFile(calibPcap)),
		QueueDepth:          16,
		DriftWindow:         -1, // monitoring off: this test isolates pair atomicity
		OnResult: func(r clap.Result) {
			mu.Lock()
			scored[r.Conn] = verdict{score: r.Score, flagged: r.Flagged}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if th := srv.tenants[0].Hot; th == nil {
		t.Fatal("no hot handle")
	}
	// The soak is paced so scoring outlasts many reload transactions.
	srv.AddSource(clap.Soak(clap.SoakConfig{Connections: soakN, Seed: 77, AttackFraction: 0.4, Rate: 150}))
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := srv.Threshold(); got != thA {
		t.Fatalf("startup calibration threshold %v, offline derivation %v", got, thA)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Hammer atomic reload-with-calibration while the soak scores.
	paths := []string{b1Model, clapModel}
	reloads := 0
	for srv.Scored() < soakN {
		body := fmt.Sprintf(`{"path": %q, "calibration": %q, "fpr": %g}`,
			paths[reloads%2], calibPcap, targetFPR)
		resp, err := http.Post(ts.URL+"/v1/reload", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload %d: %s", reloads, resp.Status)
		}
		reloads++
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if reloads < 2 {
		t.Fatalf("only %d reloads landed while scoring", reloads)
	}

	// Drift monitoring is disabled in this config: /v1/drift must say so.
	resp, err := http.Get(ts.URL + "/v1/drift")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/drift with monitoring disabled: %s, want 404", resp.Status)
	}

	// Offline ground truth per model, then the pairing check: a verdict
	// is legal iff (score, flag) is consistent with (A, thA) or (B, thB).
	// A (new model, old threshold) crossover would flag against the
	// wrong threshold and fail both arms.
	a, b := loadModel(t, clapModel), loadModel(t, b1Model)
	mu.Lock()
	defer mu.Unlock()
	if len(scored) != soakN {
		t.Fatalf("scored %d connections, want %d", len(scored), soakN)
	}
	seenA, seenB := 0, 0
	for c, v := range scored {
		sa, sb := a.ScoreConn(c), b.ScoreConn(c)
		okA := v.score == sa && v.flagged == (sa >= thA)
		okB := v.score == sb && v.flagged == (sb >= thB)
		switch {
		case okA:
			seenA++
		case okB:
			seenB++
		default:
			t.Fatalf("crossed (model, threshold) pairing: score=%v flagged=%v (A: score %v th %v, B: score %v th %v)",
				v.score, v.flagged, sa, thA, sb, thB)
		}
	}
	if seenA == 0 || seenB == 0 {
		t.Fatalf("both models must serve during the hammer: A scored %d, B scored %d (%d reloads)",
			seenA, seenB, reloads)
	}
}
