package clap_test

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"clap"
	"clap/internal/backend"
	"clap/internal/serve"
)

// thresholdSuspects is the suspect corpus the threshold rule is checked
// on, read afresh for each path so that no path sees another's state.
func thresholdSuspects(t *testing.T) []*clap.Connection {
	t.Helper()
	conns, _, err := clap.AttackCorpus(clap.TrafficGen(24, 42),
		"GFW: Injected RST Bad TCP-Checksum/MD5-Option", 0.5, 7).Connections(nil)
	if err != nil {
		t.Fatal(err)
	}
	return conns
}

// chanSource is a serve source fed by the test, so a threshold can be
// installed on the running server before its first connection.
type chanSource chan *clap.Connection

func (chanSource) Name() string { return "test" }

func (s chanSource) Stream(ctx context.Context, deliver func(*clap.Connection)) (int, error) {
	for c := range s {
		if ctx.Err() != nil {
			return 0, nil
		}
		deliver(c)
	}
	return 0, nil
}

// parityScorer scores a connection with an even packet count 0 and one
// with an odd count -1: a model whose benign scores can put the
// threshold at exactly 0.
type parityScorer struct{}

func (parityScorer) Tag() string                                  { return "parity" }
func (parityScorer) Describe() string                             { return "parity test scorer" }
func (parityScorer) WindowSpan() int                              { return 1 }
func (parityScorer) Trained() bool                                { return true }
func (parityScorer) Train([]*clap.Connection, backend.Logf) error { return nil }
func (parityScorer) ScoreConn(c *clap.Connection) float64         { return -float64(c.Len() % 2) }
func (parityScorer) Summarize(errs []float64) (float64, int)      { return -errs[0], 0 }
func (parityScorer) Save(io.Writer) error                         { return errors.New("parity: not persistable") }
func (parityScorer) Windows(c *clap.Connection) [][]float64 {
	return [][]float64{{float64(c.Len() % 2)}}
}
func (parityScorer) ScoreWindows(wins [][]float64) []float64 {
	out := make([]float64, len(wins))
	for i, w := range wins {
		out[i] = w[0]
	}
	return out
}

// TestOneThresholdRule: a threshold is a finite number > 0, or 0 for
// none, and it lives in one HotBackend pair. Run, a pipeline stream and
// the serving daemon, given the same model and threshold, flag the same
// connections — with no threshold, a fixed one, a calibrated one, and a
// pair threshold set to 0, which flags nothing. Both threshold options
// together are refused, and a calibration that finds no positive
// threshold fails.
func TestOneThresholdRule(t *testing.T) {
	bk := clap.PipelineTestBackend(t)
	calP, err := clap.NewPipeline(clap.WithBackend(bk))
	if err != nil {
		t.Fatal(err)
	}
	cal, err := calP.Calibrate(0.25, clap.TrafficGen(80, 1))
	if err != nil {
		t.Fatal(err)
	}
	// A fixed threshold that is not the calibrated one: the benign
	// corpus's at 50 % FPR.
	loose, err := calP.Calibrate(0.5, clap.TrafficGen(80, 1))
	if err != nil {
		t.Fatal(err)
	}
	fixed := loose.Threshold

	cases := []struct {
		name   string
		opts   []clap.PipelineOption // the threshold for Run and NewStream
		cfg    serve.Config          // the same threshold for the server
		zero   bool                  // then set the pair's threshold to 0
		wantTh float64               // the threshold Run pins
	}{
		{name: "none"},
		{name: "fixed", opts: []clap.PipelineOption{clap.WithThreshold(fixed)},
			cfg: serve.Config{Threshold: fixed}, wantTh: fixed},
		{name: "calibration", opts: []clap.PipelineOption{clap.WithCalibration(cal)},
			cfg: serve.Config{CalibrationSnapshot: cal}, wantTh: cal.Threshold},
		{name: "pair set to 0", opts: []clap.PipelineOption{clap.WithCalibration(cal)},
			cfg: serve.Config{CalibrationSnapshot: cal}, zero: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pipeline := func() *clap.Pipeline {
				hot, err := clap.NewHotBackend(bk)
				if err != nil {
					t.Fatal(err)
				}
				p, err := clap.NewPipeline(append([]clap.PipelineOption{clap.WithBackend(hot)}, tc.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				if tc.zero {
					if err := hot.SetThreshold(0); err != nil {
						t.Fatal(err)
					}
				}
				return p
			}

			sum, err := pipeline().Run(clap.Conns(thresholdSuspects(t)...))
			if err != nil {
				t.Fatal(err)
			}
			if sum.Threshold != tc.wantTh {
				t.Fatalf("Run pinned threshold %v, want %v", sum.Threshold, tc.wantTh)
			}
			want := make([]bool, len(sum.Results))
			flagged := 0
			for i, r := range sum.Results {
				if want[i] = r.Flagged; r.Flagged {
					flagged++
				}
			}
			if flagged != sum.Flagged {
				t.Fatalf("Run counts %d flagged, its results %d", sum.Flagged, flagged)
			}
			if tc.wantTh == 0 && flagged != 0 {
				t.Fatalf("%d of %d flagged without a threshold", flagged, len(want))
			}
			if tc.wantTh > 0 && (flagged == 0 || flagged == len(want)) {
				t.Fatalf("%d of %d flagged at threshold %v: the case shows nothing", flagged, len(want), tc.wantTh)
			}

			var streamed []clap.Result
			s := pipeline().NewStream(nil, func(r clap.Result) { streamed = append(streamed, r) })
			for _, c := range thresholdSuspects(t) {
				s.Submit(c)
			}
			s.Close()

			cfg := tc.cfg
			cfg.Backend, cfg.DriftWindow = bk, -1
			cfg.Logf = func(string, ...any) {}
			var served []clap.Result // written on the emit goroutine until Shutdown
			cfg.OnResult = func(r clap.Result) { served = append(served, r) }
			srv, err := serve.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			src := make(chanSource)
			srv.AddSource(src)
			if err := srv.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			if tc.zero {
				if err := srv.SetThreshold("", 0); err != nil {
					t.Fatal(err)
				}
			}
			conns := thresholdSuspects(t)
			for _, c := range conns {
				src <- c
			}
			close(src)
			for deadline := time.Now().Add(time.Minute); srv.Scored() < uint64(len(conns)); time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("server scored %d of %d connections", srv.Scored(), len(conns))
				}
			}
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}

			for path, got := range map[string][]clap.Result{"stream": streamed, "serve": served} {
				if len(got) != len(want) {
					t.Fatalf("%s: %d results, Run %d", path, len(got), len(want))
				}
				for i, r := range got {
					if r.Conn.Key != sum.Results[i].Conn.Key || r.Score != sum.Results[i].Score {
						t.Fatalf("%s: result %d is not Run's", path, i)
					}
					if r.Flagged != want[i] {
						t.Fatalf("%s: connection %d flagged %v, Run %v (score %v, threshold %v)",
							path, i, r.Flagged, want[i], r.Score, tc.wantTh)
					}
				}
			}
		})
	}

	// The threshold comes from one option, whatever their order.
	for _, opts := range [][]clap.PipelineOption{
		{clap.WithCalibration(cal), clap.WithThreshold(0)},
		{clap.WithThreshold(fixed), clap.WithCalibration(cal)},
	} {
		if _, err := clap.NewPipeline(append(opts, clap.WithBackend(bk))...); err == nil ||
			!strings.Contains(err.Error(), "give one of the two") {
			t.Fatalf("WithCalibration beside WithThreshold: err = %v, want a refusal", err)
		}
	}

	// A calibration that derives a threshold of 0 fails with its cause:
	// installed, it would mean "none".
	p, err := clap.NewPipeline(clap.WithBackend(parityScorer{}))
	if err != nil {
		t.Fatal(err)
	}
	corpus := clap.GenerateBenign(40, 3)
	scores := make([]float64, len(corpus))
	zeros := 0
	for i, c := range corpus {
		if scores[i] = (parityScorer{}).ScoreConn(c); scores[i] == 0 {
			zeros++
		}
	}
	if zeros == 0 || zeros == len(corpus) {
		t.Fatalf("%d of %d corpus scores are 0: need both signs", zeros, len(corpus))
	}
	// Admitting exactly the zero scores puts the threshold at 0.
	fpr := (float64(zeros) + 0.5) / float64(len(corpus))
	if th := clap.ThresholdAtFPR(scores, fpr); th != 0 {
		t.Fatalf("ThresholdAtFPR = %v, want 0", th)
	}
	if _, err := p.Calibrate(fpr, clap.Conns(corpus...)); err == nil ||
		!strings.Contains(err.Error(), "must be finite and > 0") {
		t.Fatalf("Calibrate to a threshold of 0: err = %v, want a refusal", err)
	}
}
