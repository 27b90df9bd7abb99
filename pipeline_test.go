package clap

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"clap/internal/calib"
	"clap/internal/engine"
	"clap/internal/eval"
	"clap/internal/kitsune"
)

// One shared tiny backend for the pipeline tests.
var (
	pipeOnce sync.Once
	pipeBk   Backend
	pipeErr  error
)

func pipelineBackend(t *testing.T) Backend {
	t.Helper()
	pipeOnce.Do(func() {
		b, err := NewBackend(BackendCLAP)
		if err != nil {
			pipeErr = err
			return
		}
		cb := b.(*CLAPBackend)
		cb.Cfg.RNNEpochs, cb.Cfg.AEEpochs = 4, 6
		pipeErr = b.Train(GenerateBenign(80, 1), func(string, ...any) {})
		pipeBk = b
	})
	if pipeErr != nil {
		t.Fatalf("training pipeline backend: %v", pipeErr)
	}
	return pipeBk
}

// countingBackend is a CLAP backend that counts the connections whose
// windows it makes, one per connection a stream takes in, and the
// windows it scores.
type countingBackend struct {
	*CLAPBackend
	conns, windows atomic.Int64
}

func (b *countingBackend) Windows(c *Connection) [][]float64 {
	b.conns.Add(1)
	return b.CLAPBackend.Windows(c)
}

func (b *countingBackend) ScoreWindows(wins [][]float64) []float64 {
	b.windows.Add(int64(len(wins)))
	return b.CLAPBackend.ScoreWindows(wins)
}

// runWindow is the in-flight window of a Run at the given worker count:
// how many connections it scores ahead of the one it emits next.
func runWindow(workers int) int { return workers * (4 + engine.DefaultBatch) }

// suspectSource injects the motivating example into half a fresh corpus.
// The shared fixture is deliberately under-trained (seconds, not minutes),
// so tests that need flagged connections calibrate at a loose FPR; the
// decisively-trained flagging path is covered by the cmd integration
// tests.
func suspectSource() Source {
	return AttackCorpus(TrafficGen(24, 42), "GFW: Injected RST Bad TCP-Checksum/MD5-Option", 0.5, 7)
}

// calibrated calibrates b at the loose 25 % FPR the under-trained
// fixture needs to flag anything (see suspectSource), over 80 benign
// connections.
func calibrated(t *testing.T, b Backend) *Calibration {
	t.Helper()
	p, err := NewPipeline(WithBackend(b))
	if err != nil {
		t.Fatal(err)
	}
	cal, err := p.Calibrate(0.25, TrafficGen(80, 1))
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// TestPipelineBitIdenticalAcrossWorkers is the acceptance contract:
// pipeline scores (and the rendered text report) are byte-for-byte
// identical to the serial detector path at any worker or shard count.
func TestPipelineBitIdenticalAcrossWorkers(t *testing.T) {
	bk := pipelineBackend(t)
	det := bk.(*CLAPBackend).Detector()

	// Serial reference: the pre-redesign scoring path.
	conns, _, err := suspectSource().Connections(NewEngine(1))
	if err != nil {
		t.Fatal(err)
	}
	wantScores := make([]float64, len(conns))
	for i, c := range conns {
		wantScores[i] = det.Score(c).Adversarial
	}

	var refReport []byte
	for _, workers := range []int{1, 4, 8} {
		p, err := NewPipeline(WithBackend(bk), WithWorkers(workers), WithShards(workers))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sum, err := p.Run(suspectSource(), NewTextReport(&buf, true))
		if err != nil {
			t.Fatal(err)
		}
		if len(sum.Results) != len(conns) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(sum.Results), len(conns))
		}
		for i, r := range sum.Results {
			if r.Score != wantScores[i] {
				t.Fatalf("workers=%d: conn %d score %v != serial %v", workers, i, r.Score, wantScores[i])
			}
		}
		if refReport == nil {
			refReport = buf.Bytes()
		} else if !bytes.Equal(refReport, buf.Bytes()) {
			t.Fatalf("workers=%d: text report diverged from workers=1 output", workers)
		}
	}
	if !strings.Contains(string(refReport), "top connections by adversarial score:") {
		t.Fatalf("score-only report missing ranking:\n%s", refReport)
	}
}

// TestPipelineStreamBitIdenticalAcrossWorkers pins the batched-inference
// contract at the facade: Run and NewStream produce the same scores and
// window-error series at every worker count, equal to the serial detector
// path — batching changes the wall clock, never the bits. Other batch
// sizes are the engine's to pin (TestWindowErrorsBatchedBitIdentity).
func TestPipelineStreamBitIdenticalAcrossWorkers(t *testing.T) {
	bk := pipelineBackend(t)
	det := bk.(*CLAPBackend).Detector()

	conns, _, err := suspectSource().Connections(NewEngine(1))
	if err != nil {
		t.Fatal(err)
	}
	wantScores := make([]float64, len(conns))
	wantErrs := make([][]float64, len(conns))
	for i, c := range conns {
		wantScores[i] = det.Score(c).Adversarial
		wantErrs[i] = det.WindowErrors(c)
	}

	for _, workers := range []int{1, 4} {
		p, err := NewPipeline(WithBackend(bk), WithWorkers(workers), WithWindowErrors(true))
		if err != nil {
			t.Fatal(err)
		}
		sum, err := p.Run(suspectSource())
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range sum.Results {
			if r.Score != wantScores[i] {
				t.Fatalf("workers=%d: conn %d score %v != serial %v",
					workers, i, r.Score, wantScores[i])
			}
			if len(r.Errors) != len(wantErrs[i]) {
				t.Fatalf("workers=%d: conn %d has %d window errors, serial %d",
					workers, i, len(r.Errors), len(wantErrs[i]))
			}
			for w := range r.Errors {
				if r.Errors[w] != wantErrs[i][w] {
					t.Fatalf("workers=%d: conn %d window %d diverged", workers, i, w)
				}
			}
		}

		// Streaming mode batches across queued connections; same bits.
		var streamed []float64
		s := p.NewStream(nil, func(r Result) { streamed = append(streamed, r.Score) })
		for _, c := range conns {
			s.Submit(c)
		}
		s.Close()
		for i, got := range streamed {
			if got != wantScores[i] {
				t.Fatalf("workers=%d: streamed conn %d score %v != serial %v",
					workers, i, got, wantScores[i])
			}
		}
		if fill := s.BatchFill(); fill <= 0 || fill > 1 {
			t.Fatalf("workers=%d: BatchFill = %v, want in (0, 1]", workers, fill)
		}
	}
}

// TestPipelineCalibratedThresholdFlags exercises the calibrated path end
// to end: Calibrate, WithCalibration, flagging, localization and the
// flagged text report.
func TestPipelineCalibratedThresholdFlags(t *testing.T) {
	bk := pipelineBackend(t)
	cal := calibrated(t, bk)
	if cal.Conns != 80 {
		t.Errorf("calibration corpus = %d connections, want 80", cal.Conns)
	}
	p, err := NewPipeline(
		WithBackend(bk),
		WithCalibration(cal),
		WithTopN(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sum, err := p.Run(suspectSource(), NewTextReport(&buf, false))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Threshold <= 0 || sum.Threshold != cal.Threshold {
		t.Fatalf("run threshold %v, calibration %v", sum.Threshold, cal.Threshold)
	}
	if sum.Flagged == 0 {
		t.Fatal("nothing flagged at a 25% FPR threshold")
	}
	out := buf.String()
	if !strings.Contains(out, "connections flagged at threshold") {
		t.Fatalf("flagged report missing summary line:\n%s", out)
	}
	if !strings.Contains(out, "suspicious window") {
		t.Fatalf("flagged report missing localization:\n%s", out)
	}
	flagged := 0
	for _, r := range sum.Results {
		if !r.Flagged {
			if r.Errors != nil {
				t.Error("unflagged result kept its error series without WithWindowErrors")
			}
			continue
		}
		flagged++
		if r.Score < sum.Threshold {
			t.Errorf("flagged result under threshold: %v < %v", r.Score, sum.Threshold)
		}
		if len(r.TopWindows) == 0 || len(r.TopWindows) > 3 {
			t.Errorf("flagged result has %d localized windows, want 1..3", len(r.TopWindows))
		}
		if len(r.Errors) == 0 {
			t.Error("flagged result lost its error series")
		}
	}
	if flagged != sum.Flagged {
		t.Errorf("summary counts %d flagged, results say %d", sum.Flagged, flagged)
	}
}

func TestPipelineJSONSink(t *testing.T) {
	bk := pipelineBackend(t)
	p, err := NewPipeline(WithBackend(bk), WithThreshold(0.001))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sum, err := p.Run(suspectSource(), NewJSONLines(&buf))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(sum.Results)+1 {
		t.Fatalf("%d JSON lines for %d results (+1 summary)", len(lines), len(sum.Results))
	}
	for i, l := range lines[:len(lines)-1] {
		var rec struct {
			Key        string  `json:"key"`
			Score      float64 `json:"score"`
			Flagged    bool    `json:"flagged"`
			PeakWindow int     `json:"peak_window"`
		}
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, l)
		}
		if rec.Key == "" {
			t.Fatalf("line %d missing key: %s", i, l)
		}
		if rec.Score != sum.Results[i].Score || rec.Flagged != sum.Results[i].Flagged {
			t.Fatalf("line %d disagrees with summary: %s", i, l)
		}
	}
	var trailer struct {
		Summary     bool `json:"summary"`
		Connections int  `json:"connections"`
		Flagged     int  `json:"flagged"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil || !trailer.Summary {
		t.Fatalf("missing summary trailer: %v %s", err, lines[len(lines)-1])
	}
	if trailer.Connections != len(sum.Results) || trailer.Flagged != sum.Flagged {
		t.Fatalf("summary trailer disagrees: %+v vs %d/%d", trailer, len(sum.Results), sum.Flagged)
	}
}

// streamBackends are the two scoring shapes a stream batches: one model,
// and the cascade whose two stages batch separately around its routing.
func streamBackends(t *testing.T) map[string]Backend {
	t.Helper()
	cascade, err := NewCascade(cascadeStage1(t), pipelineBackend(t), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{"clap": pipelineBackend(t), "cascade": cascade}
}

// firstEmit is a sink that records how many windows its backend had
// scored when the first verdict reached it.
type firstEmit struct {
	b     *countingBackend
	seen  int64
	emits int
}

func (s *firstEmit) Emit(Result) error {
	if s.emits == 0 {
		s.seen = s.b.windows.Load()
	}
	s.emits++
	return nil
}

func (s *firstEmit) Finish(*RunSummary) error { return nil }

// TestRunEmitsWhileScoring: Run hands a verdict to its sinks as soon as
// that connection and every earlier one are scored, while later ones are
// still scoring, rather than after the whole capture. Nothing here
// depends on timing: no connection leaves the in-flight window before
// its emit, so when the first verdict arrives at most the windows of the
// first window's worth of connections can have been scored — a fraction
// of a corpus five windows long.
func TestRunEmitsWhileScoring(t *testing.T) {
	const workers = 2
	window := runWindow(workers)
	conns := GenerateBenign(5*window, 17)
	bk := &countingBackend{CLAPBackend: pipelineBackend(t).(*CLAPBackend)}
	var admitted, total int64 // windows of the first window's connections, of all
	for i, c := range conns {
		wins := bk.CLAPBackend.Windows(c)
		if i < window {
			admitted += int64(len(wins))
		}
		total += int64(len(wins))
		bk.CLAPBackend.RecycleWindows(wins)
	}
	p, err := NewPipeline(WithBackend(bk), WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	first := &firstEmit{b: bk}
	sum, err := p.Run(Conns(conns...), first)
	if err != nil {
		t.Fatal(err)
	}
	if first.emits != len(conns) || len(sum.Results) != len(conns) {
		t.Fatalf("%d emits, %d results for %d connections", first.emits, len(sum.Results), len(conns))
	}
	if got := bk.windows.Load(); got != total {
		t.Fatalf("Run scored %d windows, the corpus has %d", got, total)
	}
	if first.seen > admitted {
		t.Fatalf("the first Emit saw %d of %d windows scored; the first %d connections have only %d",
			first.seen, total, window, admitted)
	}
}

// TestPipelineStreamMatchesRun: for clap and the cascade, at workers
// {1, 4}, a stream emits in submission order the same verdicts and
// window-error series as Run over the same connections.
func TestPipelineStreamMatchesRun(t *testing.T) {
	for name, bk := range streamBackends(t) {
		calP, err := NewPipeline(WithBackend(bk))
		if err != nil {
			t.Fatal(err)
		}
		cal, err := calP.Calibrate(0.25, TrafficGen(80, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s workers=%d", name, workers)
			p, err := NewPipeline(WithBackend(bk), WithCalibration(cal), WithWorkers(workers),
				WithWindowErrors(true))
			if err != nil {
				t.Fatal(err)
			}
			sum, err := p.Run(suspectSource())
			if err != nil {
				t.Fatal(err)
			}
			conns, _, _ := suspectSource().Connections(p.Engine())
			var streamed []Result
			s := p.NewStream(nil, func(r Result) { streamed = append(streamed, r) })
			for _, c := range conns {
				s.Submit(c)
			}
			s.Close()
			if len(streamed) != len(sum.Results) {
				t.Fatalf("%s: streamed %d results, run produced %d", label, len(streamed), len(sum.Results))
			}
			for i, r := range streamed {
				want := sum.Results[i]
				if r.Conn != conns[i] {
					t.Fatalf("%s: result %d out of submission order", label, i)
				}
				if r.Score != want.Score || r.Flagged != want.Flagged || len(r.Errors) != len(want.Errors) {
					t.Fatalf("%s: stream result %d diverged from batch run", label, i)
				}
				for w := range r.Errors {
					if r.Errors[w] != want.Errors[w] {
						t.Fatalf("%s: stream result %d window %d diverged from batch run", label, i, w)
					}
				}
			}
		}
	}
}

// The three tests named for the removed lockstep path below keep their
// names; with grouped streams and the lockstep fleet gone, each pins the
// same contract on the one stream and batch path.

// TestPipelineLockstepBitIdentity: Run scores and window-error series at
// workers {1,4} equal the serial detector path.
func TestPipelineLockstepBitIdentity(t *testing.T) {
	bk := pipelineBackend(t)
	det := bk.(*CLAPBackend).Detector()

	conns, _, err := suspectSource().Connections(NewEngine(1))
	if err != nil {
		t.Fatal(err)
	}
	wantScores := make([]float64, len(conns))
	wantErrs := make([][]float64, len(conns))
	for i, c := range conns {
		wantScores[i] = det.Score(c).Adversarial
		wantErrs[i] = det.WindowErrors(c)
	}

	for _, workers := range []int{1, 4} {
		p, err := NewPipeline(WithBackend(bk), WithWorkers(workers), WithWindowErrors(true))
		if err != nil {
			t.Fatal(err)
		}
		sum, err := p.Run(suspectSource())
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range sum.Results {
			if r.Score != wantScores[i] {
				t.Fatalf("workers=%d: conn %d score %v != serial %v",
					workers, i, r.Score, wantScores[i])
			}
			if len(r.Errors) != len(wantErrs[i]) {
				t.Fatalf("workers=%d: conn %d has %d window errors, serial %d",
					workers, i, len(r.Errors), len(wantErrs[i]))
			}
			for w := range r.Errors {
				if r.Errors[w] != wantErrs[i][w] {
					t.Fatalf("workers=%d: conn %d window %d diverged", workers, i, w)
				}
			}
		}
	}
}

// TestPipelineStreamLockstepMatchesRun: a stream emits the same verdicts
// as the batch Run, in submission order, at every worker count.
func TestPipelineStreamLockstepMatchesRun(t *testing.T) {
	bk := pipelineBackend(t)
	cal := calibrated(t, bk)
	ref, err := NewPipeline(WithBackend(bk), WithCalibration(cal))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := ref.Run(suspectSource())
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		p, err := NewPipeline(WithBackend(bk), WithWorkers(workers), WithCalibration(cal))
		if err != nil {
			t.Fatal(err)
		}
		conns, _, _ := suspectSource().Connections(p.Engine())
		var streamed []Result
		s := p.NewStream(nil, func(r Result) { streamed = append(streamed, r) })
		for _, c := range conns {
			s.Submit(c)
		}
		s.Close()
		if len(streamed) != len(sum.Results) {
			t.Fatalf("workers=%d: streamed %d results, run produced %d", workers, len(streamed), len(sum.Results))
		}
		for i := range streamed {
			if streamed[i].Conn != conns[i] {
				t.Fatalf("workers=%d: result %d out of submission order", workers, i)
			}
			if streamed[i].Score != sum.Results[i].Score || streamed[i].Flagged != sum.Results[i].Flagged {
				t.Fatalf("workers=%d: stream result %d diverged from batch run", workers, i)
			}
		}
	}
}

// TestPipelineStreamProvenance: on a provenance-armed stream every verdict
// binds its model and score and carries its batched-pass placement, with
// scores equal to the serial Run.
func TestPipelineStreamProvenance(t *testing.T) {
	bk := pipelineBackend(t)
	p, err := NewPipeline(WithBackend(bk), WithProvenance(true))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewPipeline(WithBackend(bk))
	if err != nil {
		t.Fatal(err)
	}
	refSum, err := serial.Run(suspectSource())
	if err != nil {
		t.Fatal(err)
	}
	conns, _, _ := suspectSource().Connections(p.Engine())
	var streamed []Result
	s := p.NewStream(nil, func(r Result) { streamed = append(streamed, r) })
	for _, c := range conns {
		s.Submit(c)
	}
	s.Close()
	if len(streamed) != len(refSum.Results) {
		t.Fatalf("streamed %d results, run produced %d", len(streamed), len(refSum.Results))
	}
	for i, r := range streamed {
		if r.Score != refSum.Results[i].Score {
			t.Fatalf("conn %d: provenance-armed score %v != serial %v", i, r.Score, refSum.Results[i].Score)
		}
		if r.Prov == nil {
			t.Fatalf("conn %d: no provenance record on a provenance-armed stream", i)
		}
		if r.Prov.Model != bk.Tag() {
			t.Fatalf("conn %d: provenance model %q, want %q", i, r.Prov.Model, bk.Tag())
		}
		if r.Prov.BatchID == 0 {
			t.Fatalf("conn %d: no batched-pass placement", i)
		}
		if r.Prov.Score != r.Score {
			t.Fatalf("conn %d: provenance score %v != result %v", i, r.Prov.Score, r.Score)
		}
	}
}

// TestPipelineOptionValidation: invalid option values fail NewPipeline
// loudly instead of being silently coerced.
func TestPipelineOptionValidation(t *testing.T) {
	bk := pipelineBackend(t)
	// snapshot is a calibration of bk that is valid except as changed.
	snapshot := func(fpr, th float64) *Calibration {
		ref := calib.NewSketch(0, 0)
		ref.Add(0.5)
		return &Calibration{Tag: bk.Tag(), FPR: fpr, Threshold: th, Conns: 1, Ref: ref}
	}
	cases := []struct {
		name string
		opt  PipelineOption
		want string
	}{
		{"zero workers", WithWorkers(0), "worker count must be positive"},
		{"negative workers", WithWorkers(-2), "worker count must be positive"},
		{"zero shards", WithShards(0), "shard count must be positive"},
		{"negative shards", WithShards(-1), "shard count must be positive"},
		{"negative topN", WithTopN(-1), "window count must be >= 0"},
		{"negative threshold", WithThreshold(-0.5), "threshold must be finite and >= 0"},
		{"NaN threshold", WithThreshold(math.NaN()), "threshold must be finite and >= 0"},
		{"+Inf threshold", WithThreshold(math.Inf(1)), "threshold must be finite and >= 0"},
		{"-Inf threshold", WithThreshold(math.Inf(-1)), "threshold must be finite and >= 0"},
		// A calibration carries its FPR target and a threshold > 0.
		{"zero FPR", WithCalibration(snapshot(0, 0.1)), "FPR 0 outside (0, 1)"},
		{"FPR of one", WithCalibration(snapshot(1, 0.1)), "FPR 1 outside (0, 1)"},
		{"FPR above one", WithCalibration(snapshot(1.5, 0.1)), "FPR 1.5 outside (0, 1)"},
		{"NaN FPR", WithCalibration(snapshot(math.NaN(), 0.1)), "FPR NaN outside (0, 1)"},
		{"zero calibrated threshold", WithCalibration(snapshot(0.1, 0)), "threshold 0 must be finite and > 0"},
		{"nil calibration", WithCalibration(nil), "nil calibration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewPipeline(WithBackend(bk), tc.opt)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.want)
			}
		})
	}
	// Valid boundary values still construct.
	if _, err := NewPipeline(WithBackend(bk), WithWorkers(1), WithShards(1),
		WithTopN(0), WithThreshold(0)); err != nil {
		t.Fatalf("valid boundary options rejected: %v", err)
	}
}

// TestPipelineHotBackendStream: a Pipeline over a HotBackend handle swaps
// models mid-stream; every connection is scored wholly by one model.
func TestPipelineHotBackendStream(t *testing.T) {
	bk := pipelineBackend(t)
	hot, err := NewHotBackend(bk)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(WithBackend(hot))
	if err != nil {
		t.Fatal(err)
	}

	// A second model of a different tag to swap to.
	b2, err := NewBackend(BackendBaseline1)
	if err != nil {
		t.Fatal(err)
	}
	cb := b2.(*CLAPBackend)
	cb.Cfg.RNNEpochs, cb.Cfg.AEEpochs = 2, 3
	if err := b2.Train(GenerateBenign(30, 2), func(string, ...any) {}); err != nil {
		t.Fatal(err)
	}

	conns := GenerateBenign(12, 55)
	var scores []float64
	s := p.NewStream(nil, func(r Result) { scores = append(scores, r.Score) })
	for i, c := range conns {
		if i == len(conns)/2 {
			if _, err := hot.Swap(b2); err != nil {
				t.Fatal(err)
			}
		}
		s.Submit(c)
	}
	s.Close()
	if hot.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", hot.Generation())
	}
	if len(scores) != len(conns) {
		t.Fatalf("emitted %d results, want %d", len(scores), len(conns))
	}
	// Every score must match one of the two models' serial outputs —
	// never a mixture.
	for i, c := range conns {
		s1, s2 := bk.ScoreConn(c), b2.ScoreConn(c)
		if scores[i] != s1 && scores[i] != s2 {
			t.Fatalf("conn %d score %v matches neither model (%v / %v)", i, scores[i], s1, s2)
		}
	}
	// An untrained swap is rejected and leaves the current model serving.
	untrained, _ := NewBackend(BackendCLAP)
	if _, err := hot.Swap(untrained); err == nil {
		t.Fatal("untrained hot swap accepted")
	}
	if hot.Generation() != 1 {
		t.Fatalf("failed swap bumped generation to %d", hot.Generation())
	}
}

// TestPipelineStreamLockstepHotSwap: for clap and the cascade, at workers
// {1, 4}, a mid-stream hot swap still scores every
// connection wholly by one model — the batcher never puts two models'
// windows in one batch: the connections submitted before the swap by the
// first, those after it by the second.
func TestPipelineStreamLockstepHotSwap(t *testing.T) {
	b2, err := NewBackend(BackendBaseline1)
	if err != nil {
		t.Fatal(err)
	}
	cb := b2.(*CLAPBackend)
	cb.Cfg.RNNEpochs, cb.Cfg.AEEpochs = 2, 3
	if err := b2.Train(GenerateBenign(30, 2), func(string, ...any) {}); err != nil {
		t.Fatal(err)
	}
	conns := GenerateBenign(40, 55)
	for name, bk := range streamBackends(t) {
		next := b2
		if name == "cascade" {
			if next, err = NewCascade(cascadeStage1(t), b2, 0.3); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s workers=%d", name, workers)
			hot, err := NewHotBackend(bk)
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPipeline(WithBackend(hot), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			swapAt := len(conns) / 2
			var scores []float64
			firstHalf := make(chan struct{})
			s := p.NewStream(nil, func(r Result) {
				if scores = append(scores, r.Score); len(scores) == swapAt {
					close(firstHalf)
				}
			})
			for i, c := range conns {
				if i == swapAt {
					// The connections before the swap are judged
					// before the second model goes in.
					<-firstHalf
					if _, err := hot.Swap(next); err != nil {
						t.Fatal(err)
					}
				}
				s.Submit(c)
			}
			s.Close()
			if len(scores) != len(conns) {
				t.Fatalf("%s: emitted %d results, want %d", label, len(scores), len(conns))
			}
			for i, c := range conns {
				first, second := bk.ScoreConn(c), next.ScoreConn(c)
				want := second
				if i < swapAt {
					want = first
				}
				if scores[i] != want {
					t.Fatalf("%s: conn %d scored %v, want %v (models: %v / %v)", label, i, scores[i], want, first, second)
				}
			}
		}
	}
}

func TestPipelineNeedsBackend(t *testing.T) {
	if _, err := NewPipeline(); err == nil {
		t.Fatal("NewPipeline without a backend should fail")
	}
	untrained, err := NewBackend(BackendCLAP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPipeline(WithBackend(untrained)); err == nil || !strings.Contains(err.Error(), "not trained") {
		t.Fatalf("NewPipeline with an untrained backend: err = %v", err)
	}
}

// pairless is a Backend written against the public contract alone: it
// embeds a trained model but shadows Windows, so it is not a BatchScorer.
type pairless struct{ *CLAPBackend }

func (pairless) Windows() {}

// TestPipelineRefusesBackendWithoutPair: a leaf without the batched pair
// has no way to score, so every constructor that takes a Backend refuses
// it with an error naming BatchScorer — rather than accepting it and
// panicking on the first Run's worker goroutine.
func TestPipelineRefusesBackendWithoutPair(t *testing.T) {
	var _ BatchScorer = (*CLAPBackend)(nil) // the requirement is nameable
	good := pipelineBackend(t)
	bare := pairless{good.(*CLAPBackend)}
	if _, err := NewPipeline(WithBackend(bare)); err == nil || !strings.Contains(err.Error(), "BatchScorer") {
		t.Fatalf("NewPipeline on a backend without the pair: err = %v", err)
	}
	if _, err := NewHotBackend(bare); err == nil || !strings.Contains(err.Error(), "BatchScorer") {
		t.Fatalf("NewHotBackend on a backend without the pair: err = %v", err)
	}
	hot, err := NewHotBackend(good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hot.Swap(bare); err == nil {
		t.Fatal("Swap installed a backend without the pair")
	}
	if _, err := hot.SwapPair(bare, 1); err == nil {
		t.Fatal("SwapPair installed a backend without the pair")
	}
	if hot.Current() != good {
		t.Fatal("a refused swap replaced the live model")
	}
	if _, err := NewPipeline(WithBackend(hot)); err != nil {
		t.Fatalf("NewPipeline on a hot handle over a scorable model: %v", err)
	}
}

// TestPipelineKitsuneBackend runs the whole pipeline over the evaluation
// suite's Kitsune adapter: a per-packet (span-1) backend needs nothing but
// WithBackend.
func TestPipelineKitsuneBackend(t *testing.T) {
	cfg := kitsune.DefaultConfig()
	cfg.FMWindow = 200
	b := &eval.Kitsune{Cfg: cfg}
	if err := b.Train(GenerateBenign(30, 1), func(string, ...any) {}); err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(WithBackend(b), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := p.Run(suspectSource())
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Results) == 0 {
		t.Fatal("no results")
	}
	if sum.WindowSpan != 1 {
		t.Errorf("kitsune window span = %d, want 1 (per-packet)", sum.WindowSpan)
	}
	for i, r := range sum.Results {
		if want := b.ScoreConn(r.Conn); r.Score != want {
			t.Fatalf("conn %d: pipeline score %v != serial kitsune score %v", i, r.Score, want)
		}
	}
}

func TestBackendPersistenceThroughFacade(t *testing.T) {
	bk := pipelineBackend(t)
	dir := t.TempDir()
	path := dir + "/model.bin"
	if err := SaveBackendFile(path, bk); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBackendFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag() != BackendCLAP {
		t.Fatalf("loaded tag %q", got.Tag())
	}
	probe := GenerateBenign(3, 77)
	for i, c := range probe {
		if got.ScoreConn(c) != bk.ScoreConn(c) {
			t.Fatalf("conn %d: facade round-trip changed the score", i)
		}
	}
}

// TestPipelineCalibrationSnapshot pins the explicit calibration flow:
// Pipeline.Calibrate derives ThresholdAtFPR of the corpus's batched
// scores, the snapshot round-trips through disk byte-compatibly,
// WithCalibration reproduces the calibrated run's verdicts exactly, and
// mismatched or invalid snapshots fail loudly.
func TestPipelineCalibrationSnapshot(t *testing.T) {
	bk := pipelineBackend(t)
	p, err := NewPipeline(WithBackend(bk))
	if err != nil {
		t.Fatal(err)
	}
	cal, err := p.Calibrate(0.25, TrafficGen(80, 1))
	if err != nil {
		t.Fatal(err)
	}
	benign, _, err := TrafficGen(80, 1).Connections(p.Engine())
	if err != nil {
		t.Fatal(err)
	}
	if th := ThresholdAtFPR(p.Engine().ScoresBatched(bk, benign), 0.25); cal.Threshold != th {
		t.Fatalf("Calibrate threshold %v != ThresholdAtFPR of the corpus %v", cal.Threshold, th)
	}
	base, err := NewPipeline(WithBackend(bk), WithCalibration(cal))
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Run(suspectSource())
	if err != nil {
		t.Fatal(err)
	}
	if cal.Tag != bk.Tag() || cal.FPR != 0.25 || cal.Conns != 80 {
		t.Fatalf("snapshot metadata: %+v", cal)
	}
	if cal.Ref == nil || cal.Ref.Count() != 80 {
		t.Fatalf("reference sketch holds %v scores, want 80", cal.Ref.Count())
	}

	// Disk round trip, then a pipeline driven purely by the snapshot.
	path := t.TempDir() + "/clap.model.calib"
	if err := SaveCalibrationFile(path, cal); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCalibrationFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Writes are temp+rename: a failed save must leave the existing
	// snapshot untouched, never a truncated file that loads as nothing.
	if err := SaveCalibrationFile(path, &Calibration{}); err == nil {
		t.Fatal("saving an invalid snapshot succeeded")
	}
	if again, err := LoadCalibrationFile(path); err != nil || again.Threshold != back.Threshold {
		t.Fatalf("failed save disturbed the existing snapshot: %v", err)
	}
	p2, err := NewPipeline(WithBackend(bk), WithCalibration(back))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.Run(suspectSource())
	if err != nil {
		t.Fatal(err)
	}
	if got.Threshold != want.Threshold || got.Flagged != want.Flagged {
		t.Fatalf("snapshot-driven run: threshold %v flagged %d, want %v/%d",
			got.Threshold, got.Flagged, want.Threshold, want.Flagged)
	}
	for i := range want.Results {
		if got.Results[i].Score != want.Results[i].Score || got.Results[i].Flagged != want.Results[i].Flagged {
			t.Fatalf("conn %d: snapshot-driven verdict (%v, %v) != calibrated (%v, %v)", i,
				got.Results[i].Score, got.Results[i].Flagged,
				want.Results[i].Score, want.Results[i].Flagged)
		}
	}

	// Error paths: bad targets, nil sources, tag mismatches.
	if _, err := p.Calibrate(0, TrafficGen(5, 1)); err == nil {
		t.Error("Calibrate(0) succeeded")
	}
	if _, err := p.Calibrate(0.5, nil); err == nil {
		t.Error("Calibrate(nil source) succeeded")
	}
	// An empty calibration corpus fails loudly, never deriving a silent
	// +Inf threshold that disables flagging forever.
	if _, err := p.Calibrate(0.5, Conns()); err == nil ||
		!strings.Contains(err.Error(), "no connections") {
		t.Errorf("Calibrate over an empty corpus: err = %v, want loud failure", err)
	}
	other := back
	mismatch := *other
	mismatch.Tag = BackendBaseline1
	if _, err := NewPipeline(WithBackend(bk), WithCalibration(&mismatch)); err == nil ||
		!strings.Contains(err.Error(), "snapshot is for backend") {
		t.Errorf("tag-mismatched snapshot accepted: %v", err)
	}
	if _, err := NewPipeline(WithBackend(bk), WithCalibration(nil)); err == nil {
		t.Error("nil snapshot accepted")
	}
}

func TestSourcesReportSkipped(t *testing.T) {
	// A pcap with a trailing truncated record must surface the skip count
	// through the Source, not hide it.
	conns := GenerateBenign(5, 3)
	var buf bytes.Buffer
	if err := WritePCAP(&buf, conns); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := PCAPStream(&buf).Connections(nil)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("clean capture reported %d skipped", skipped)
	}
	if len(got) < len(conns) {
		t.Errorf("read %d connections, wrote %d", len(got), len(conns))
	}

	if _, _, err := PCAPFile("/definitely/not/here.pcap").Connections(nil); err == nil {
		t.Error("missing pcap file should error")
	}
	if _, _, err := AttackCorpus(TrafficGen(2, 1), "no such strategy", 1, 1).Connections(nil); err == nil {
		t.Error("unknown strategy should error")
	}
}

func TestTrafficGenRejectsNegativeCount(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("TrafficGen(-5) panicked: %v", r)
		}
	}()
	conns, _, err := TrafficGen(-5, 1).Connections(nil)
	if err == nil || !strings.Contains(err.Error(), "-5") {
		t.Fatalf("TrafficGen(-5): %d connections, err %v; want an error naming -5", len(conns), err)
	}
	if conns, _, err := TrafficGen(0, 1).Connections(nil); err != nil || len(conns) != 0 {
		t.Fatalf("TrafficGen(0): %d connections, err %v", len(conns), err)
	}
}

func TestAttackCorpusValidatesFraction(t *testing.T) {
	const strategy = "GFW: Injected RST Bad TCP-Checksum/MD5-Option"
	for _, tc := range []struct {
		fraction float64
		ok       bool
	}{
		{math.NaN(), false},
		{-0.1, false},
		{0, true},
		{1, true},
		{1.1, false},
	} {
		conns, _, err := AttackCorpus(TrafficGen(20, 1), strategy, tc.fraction, 7).Connections(nil)
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), "[0, 1]") {
				t.Errorf("fraction %v: err %v, want a range error", tc.fraction, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("fraction %v: %v", tc.fraction, err)
			continue
		}
		attacked := 0
		for _, c := range conns {
			if c.AttackName != "" {
				attacked++
			}
		}
		if tc.fraction == 0 && attacked != 0 {
			t.Errorf("fraction 0 attacked %d of %d connections", attacked, len(conns))
		}
		if tc.fraction == 1 && attacked == 0 {
			t.Errorf("fraction 1 attacked none of %d connections", len(conns))
		}
	}
}
