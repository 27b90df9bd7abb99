package backend

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync/atomic"

	"clap/internal/flow"
	"clap/internal/metrics"
)

// TagCascade is the tiered two-stage backend: a cheap first stage screens
// every connection and only the suspicious tail is re-scored by the
// expensive second stage.
const TagCascade = "cascade"

// DefaultEscalateFPR is the fraction of benign traffic allowed to escalate
// to the second stage when no explicit escalation FPR is configured: the
// throughput knob — the cascade's cost is stage1 + escFPR·stage2 on
// benign-heavy traffic.
const DefaultEscalateFPR = 0.05

const (
	cascadeFormatVersion = 1
	maxStageBlob         = 1 << 28 // sanity cap on one nested stage payload
)

func init() {
	Register(TagCascade, Factory{
		New: func() Backend {
			s1, _ := New(TagBaseline1)
			s2, _ := New(TagCLAP)
			c, _ := NewCascade(s1, s2, DefaultEscalateFPR)
			return c
		},
		Load: loadCascade,
	})
}

// cascadeStats carries the escalation counters. It is shared by pointer
// across WithStage2 grafts, so a hot reload of the expensive stage alone
// does not reset the serving layer's Prometheus counters.
type cascadeStats struct {
	evaluated atomic.Uint64
	escalated atomic.Uint64
}

// Cascade composes two backends into a tiered detector: every connection
// is scored by the cheap first stage; connections whose first-stage score
// reaches the escalation threshold are re-scored by the second stage,
// whose window errors (and therefore scores) are bit-identical to running
// that backend alone. Below the threshold the first stage's series is the
// verdict. Calibrate the escalation threshold from a benign corpus
// (CalibrateStages, or Pipeline.Calibrate which composes it) so at most
// EscalateFPR of benign traffic pays the expensive stage.
//
// Until the escalation threshold is calibrated, everything escalates —
// accuracy-conservative (pure second-stage verdicts), with the throughput
// win arriving once calibration installs the threshold.
type Cascade struct {
	s1, s2 Backend

	// escFPR is the target fraction of benign connections allowed to
	// escalate. Set at construction (or SetEscalateFPR) before serving.
	escFPR float64

	// esc is the escalation threshold on the first stage's score
	// (Float64bits), escSet whether it is in force. Atomic because a
	// serving-layer recalibration rewrites them while pool workers score.
	esc    atomic.Uint64
	escSet atomic.Bool

	stats *cascadeStats
}

// NewCascade composes two trained-or-trainable backends into a cascade.
// Both stages must be leaf backends with the batched pair (BatchScorer) —
// one tier of escalation, no nested cascades — and escalateFPR must lie
// in (0, 1).
func NewCascade(stage1, stage2 Backend, escalateFPR float64) (*Cascade, error) {
	if err := cascadeStage(stage1); err != nil {
		return nil, err
	}
	if err := cascadeStage(stage2); err != nil {
		return nil, err
	}
	if !(escalateFPR > 0 && escalateFPR < 1) { // negation also catches NaN
		return nil, fmt.Errorf("backend: cascade escalate FPR %v must be in (0, 1)", escalateFPR)
	}
	return &Cascade{s1: stage1, s2: stage2, escFPR: escalateFPR, stats: &cascadeStats{}}, nil
}

// cascadeStage rejects a stage the cascade cannot route to: a nil one, or
// one without the batched pair — which a Cascade (and a Hot handle) lacks.
func cascadeStage(s Backend) error {
	if s == nil {
		return errors.New("backend: cascade needs two stages")
	}
	if _, ok := s.(BatchScorer); !ok {
		return fmt.Errorf("backend: cascade stage %s is not a leaf backend with batched scoring (a cascade cannot nest)", s.Tag())
	}
	return nil
}

// NewFromSpec instantiates a backend from a CLI -backend value: a plain
// registry tag, or "cascade:stage1+stage2" naming the two stage tags
// (e.g. "cascade:baseline1+clap"). The bare "cascade" tag is the default
// baseline1+clap pairing.
func NewFromSpec(spec string) (Backend, error) {
	rest, ok := strings.CutPrefix(spec, TagCascade+":")
	if !ok {
		return New(spec)
	}
	t1, t2, ok := strings.Cut(rest, "+")
	if !ok || t1 == "" || t2 == "" {
		return nil, fmt.Errorf("backend: cascade spec %q must be %s:stage1+stage2", spec, TagCascade)
	}
	s1, err := New(t1)
	if err != nil {
		return nil, err
	}
	s2, err := New(t2)
	if err != nil {
		return nil, err
	}
	return NewCascade(s1, s2, DefaultEscalateFPR)
}

// Stages returns the cascade's first (cheap) and second (expensive) stage.
func (b *Cascade) Stages() (stage1, stage2 Backend) { return b.s1, b.s2 }

// EscalateFPR reports the target benign escalation fraction.
func (b *Cascade) EscalateFPR() float64 { return b.escFPR }

// SetEscalateFPR adjusts the target benign escalation fraction; the new
// value takes effect at the next CalibrateStages. Call before serving.
func (b *Cascade) SetEscalateFPR(f float64) error {
	if !(f > 0 && f < 1) {
		return fmt.Errorf("backend: cascade escalate FPR %v must be in (0, 1)", f)
	}
	b.escFPR = f
	return nil
}

// Escalation reports the current escalation threshold and whether one is
// in force (false until CalibrateStages or SetEscalation).
func (b *Cascade) Escalation() (threshold float64, set bool) {
	return math.Float64frombits(b.esc.Load()), b.escSet.Load()
}

// SetEscalation installs an explicit escalation threshold on the first
// stage's score scale, bypassing calibration.
func (b *Cascade) SetEscalation(threshold float64) error {
	if math.IsNaN(threshold) || math.IsInf(threshold, 0) || threshold < 0 {
		return fmt.Errorf("backend: cascade escalation threshold %v must be finite and >= 0", threshold)
	}
	b.esc.Store(math.Float64bits(threshold))
	b.escSet.Store(true)
	return nil
}

// EscalationCounts reports how many connections the cascade has scored and
// how many of them escalated to the second stage — the serving layer's
// clap_serve_cascade_* metrics.
func (b *Cascade) EscalationCounts() (evaluated, escalated uint64) {
	return b.stats.evaluated.Load(), b.stats.escalated.Load()
}

// ResetEscalationCounts zeroes the escalation counters — calibration
// passes score the calibration corpus through the cascade and would
// otherwise pollute the served-traffic counters.
func (b *Cascade) ResetEscalationCounts() {
	b.stats.evaluated.Store(0)
	b.stats.escalated.Store(0)
}

// WithStage2 returns a cascade with the expensive stage replaced and
// everything else — cheap stage, escalation threshold, escalation
// counters — carried over. The serving layer's hot reload grafts a
// retrained expensive model in with it, without rescreening state or
// resetting metrics. The incoming stage must score on the same scale the
// outgoing one did (same family), or the operating threshold needs
// recalibration; tag equality is the caller's check.
func (b *Cascade) WithStage2(stage2 Backend) (*Cascade, error) {
	if err := cascadeStage(stage2); err != nil {
		return nil, err
	}
	nb := &Cascade{s1: b.s1, s2: stage2, escFPR: b.escFPR, stats: b.stats}
	nb.esc.Store(b.esc.Load())
	nb.escSet.Store(b.escSet.Load())
	return nb, nil
}

// Tag implements Backend.
func (b *Cascade) Tag() string { return TagCascade }

// Describe implements Backend.
func (b *Cascade) Describe() string {
	esc := "escalate: all (uncalibrated)"
	if th, set := b.Escalation(); set {
		esc = fmt.Sprintf("escalate >= %.6g (target %.3g benign)", th, b.escFPR)
	}
	return fmt.Sprintf("cascade[%s -> %s] %s", b.s1.Tag(), b.s2.Tag(), esc)
}

// WindowSpan implements Backend: the second stage's span — flagged
// connections are the forensically interesting ones, and their window
// indices come from the expensive stage.
func (b *Cascade) WindowSpan() int { return b.s2.WindowSpan() }

// Trained implements Backend: both stages must hold fitted models.
func (b *Cascade) Trained() bool { return b.s1.Trained() && b.s2.Trained() }

// Train implements Backend: both stages fit on the same benign corpus.
func (b *Cascade) Train(benign []*flow.Connection, logf Logf) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	logf("cascade: training stage 1 (%s)", b.s1.Tag())
	if err := b.s1.Train(benign, logf); err != nil {
		return fmt.Errorf("cascade stage 1 (%s): %w", b.s1.Tag(), err)
	}
	logf("cascade: training stage 2 (%s)", b.s2.Tag())
	if err := b.s2.Train(benign, logf); err != nil {
		return fmt.Errorf("cascade stage 2 (%s): %w", b.s2.Tag(), err)
	}
	return nil
}

// WindowErrorsRouted is the cascade's series (what WindowErrors returns
// for it) plus the routing attribution Route reports. The first stage
// screens the connection, Route decides, and iff the connection escalates
// the second stage re-scores it — a series bit-identical to running the
// second stage alone. Summarize then reduces whichever series came back,
// so ScoreConn == Summarize(WindowErrors(b, c)) holds by construction for
// any stage pairing. The engine's micro-batcher runs the same two stages
// around the same Route in batches.
func (b *Cascade) WindowErrorsRouted(c *flow.Connection) (errs []float64, escalated bool, stage1Margin float64) {
	errs = WindowErrors(b.s1, c)
	if escalated, stage1Margin = b.Route(errs); escalated {
		errs = WindowErrors(b.s2, c)
	}
	return errs, escalated, stage1Margin
}

// Route settles one connection from its first-stage series e1 and counts
// it; the escalation decision lives here and only here. Iff the stage-1
// score reaches the escalation threshold (or none is calibrated yet) the
// connection escalates, and the caller replaces e1 with the second
// stage's series. Otherwise it is screened: e1, every window error shifted
// down by the threshold, is the verdict's series, and reduces to a
// negative score (stage-1 score minus threshold). Stage error magnitudes
// are non-negative, so every screened connection ranks strictly below
// every escalated one — the routed score is a single-threshold ranking
// statistic although the stages score on unrelated scales, and an
// operating threshold calibrated over routed scores lands in the escalated
// range whenever the detection FPR target is tighter than the escalation
// budget. stage1Margin is the stage-1 score minus the threshold (the raw
// stage-1 score while uncalibrated).
func (b *Cascade) Route(e1 []float64) (escalated bool, stage1Margin float64) {
	b.stats.evaluated.Add(1)
	score, _ := b.s1.Summarize(e1)
	th, set := b.Escalation()
	if !set {
		b.stats.escalated.Add(1)
		return true, score
	}
	if score < th {
		for i := range e1 {
			e1[i] -= th
		}
		return false, score - th
	}
	b.stats.escalated.Add(1)
	return true, score - th
}

// ScoreConn implements Backend.
func (b *Cascade) ScoreConn(c *flow.Connection) float64 {
	score, _ := b.Summarize(WindowErrors(b, c))
	return score
}

// Summarize implements Backend: the second stage's reduction,
// unconditionally. Escalated series are the second stage's own, so their
// scores are bit-identical to the pure second stage; non-escalated series
// are the first stage's threshold-shifted margins and reduce on the same
// peak-window-mean that every CLAP-family stage shares — the reduction is
// shift-equivariant, so the screened score is the stage-1 score minus the
// escalation threshold (for stage pairs whose reductions differ, it is
// "stage2's reduction of stage1's shifted series" — still monotone in
// stage1's anomaly evidence, which is what the operating threshold is
// calibrated against end to end).
func (b *Cascade) Summarize(errs []float64) (score float64, peak int) {
	return b.s2.Summarize(errs)
}

// CalibrateStages derives the escalation threshold from one benign
// corpus: the threshold on the first stage's score admitting at most
// EscalateFPR of benign connections to the second stage. scorer scores a
// corpus with one stage (the Pipeline passes its batched engine pass).
// The caller then derives the end-to-end operating threshold by scoring
// the composed cascade on the same corpus — both quantile cuts, so the
// cascade's realized end-to-end FPR meets the target regardless of the
// two stages' score scales.
func (b *Cascade) CalibrateStages(benign []*flow.Connection, scorer func(Backend, []*flow.Connection) []float64) error {
	if len(benign) == 0 {
		return errors.New("backend: cascade stage calibration needs a benign corpus")
	}
	if !b.Trained() {
		return errors.New("backend: cascade stage calibration needs trained stages")
	}
	th := metrics.ThresholdAtFPR(scorer(b.s1, benign), b.escFPR)
	if math.IsInf(th, 1) {
		return errors.New("backend: cascade stage calibration produced no scores")
	}
	if err := b.SetEscalation(th); err != nil {
		return err
	}
	b.ResetEscalationCounts()
	return nil
}

// Save implements Backend (payload only; the registry Save frames it).
// Layout, all big-endian: format version byte, escalate-FPR bits,
// escalation-set byte, escalation-threshold bits, then the two stages as
// length-prefixed registry-framed model streams — so each stage rides its
// own tagged header and loads through its own decoder.
func (b *Cascade) Save(w io.Writer) error {
	if !b.Trained() {
		return errors.New("backend: saving untrained cascade backend")
	}
	var buf bytes.Buffer
	wr := func(v any) { binary.Write(&buf, binary.BigEndian, v) }
	wr(uint8(cascadeFormatVersion))
	wr(math.Float64bits(b.escFPR))
	th, set := b.Escalation()
	var setByte uint8
	if set {
		setByte = 1
	}
	wr(setByte)
	wr(math.Float64bits(th))
	for _, s := range []Backend{b.s1, b.s2} {
		var sb bytes.Buffer
		if err := Save(&sb, s); err != nil {
			return fmt.Errorf("backend: saving cascade stage %s: %w", s.Tag(), err)
		}
		if sb.Len() > maxStageBlob {
			return fmt.Errorf("backend: cascade stage %s payload too large", s.Tag())
		}
		wr(uint32(sb.Len()))
		buf.Write(sb.Bytes())
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// loadCascade decodes a cascade payload written by Save.
func loadCascade(r io.Reader) (Backend, error) {
	rd := func(v any) error { return binary.Read(r, binary.BigEndian, v) }
	var ver uint8
	if err := rd(&ver); err != nil {
		return nil, fmt.Errorf("backend: cascade payload: %w", err)
	}
	if ver != cascadeFormatVersion {
		return nil, fmt.Errorf("backend: unsupported cascade format version %d", ver)
	}
	var escFPRBits uint64
	var setByte uint8
	var escBits uint64
	if err := rd(&escFPRBits); err != nil {
		return nil, fmt.Errorf("backend: cascade payload: %w", err)
	}
	if err := rd(&setByte); err != nil {
		return nil, fmt.Errorf("backend: cascade payload: %w", err)
	}
	if err := rd(&escBits); err != nil {
		return nil, fmt.Errorf("backend: cascade payload: %w", err)
	}
	var stages [2]Backend
	for i := range stages {
		var n uint32
		if err := rd(&n); err != nil {
			return nil, fmt.Errorf("backend: cascade stage %d length: %w", i+1, err)
		}
		if n > maxStageBlob {
			return nil, fmt.Errorf("backend: cascade stage %d payload too large (%d bytes)", i+1, n)
		}
		// Decode the stage straight off the stream, bounded by its
		// declared length: allocation follows the bytes present, not the
		// length the header claims.
		lr := &io.LimitedReader{R: r, N: int64(n)}
		s, err := Load(lr)
		if err != nil {
			return nil, fmt.Errorf("backend: cascade stage %d: %w", i+1, err)
		}
		if _, err := io.Copy(io.Discard, lr); err != nil || lr.N > 0 {
			return nil, fmt.Errorf("backend: cascade stage %d payload truncated", i+1)
		}
		stages[i] = s
	}
	c, err := NewCascade(stages[0], stages[1], math.Float64frombits(escFPRBits))
	if err != nil {
		return nil, err
	}
	if setByte != 0 {
		if err := c.SetEscalation(math.Float64frombits(escBits)); err != nil {
			return nil, err
		}
	}
	return c, nil
}
