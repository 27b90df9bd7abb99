// Package clap is a from-scratch Go reproduction of CLAP (Context Learning
// based Adversarial Protection), the DPI-evasion-attack detector of
//
//	Zhu et al., "You Do (Not) Belong Here: Detecting DPI Evasion Attacks
//	with Context Learning", CoNEXT 2020.
//
// CLAP learns the benign "packet context" of TCP connections — the
// inter-relationships among the header fields of one packet (intra-packet
// context) and across the packets of a connection (inter-packet context) —
// from benign traffic only, and flags connections whose context profiles
// violate the learned joint distribution. See DESIGN.md for the system
// inventory, the experiment index, and the parallel scoring engine's
// design.
//
// The root package is a facade over the internal implementation packages:
//
//	internal/packet     TCP/IPv4 codec
//	internal/pcapio     pcap reader/writer
//	internal/flow       connection assembly
//	internal/tcpstate   reference conntrack-style endhost (label oracle)
//	internal/trafficgen synthetic MAWI-like benign traffic
//	internal/attacks    the 73-strategy evasion corpus
//	internal/dpi        GFW/Zeek/Snort models + divergence checking
//	internal/nn         GRU + autoencoder substrate
//	internal/features   Table 7 feature schema
//	internal/core       the CLAP pipeline
//	internal/backend    detection contract + named backend registry
//	internal/engine     sharded worker-pool scoring engine
//	internal/kitsune    Baseline #2 (ensemble-AE IDS), an evaluation baseline
//	internal/metrics    AUC/EER/Top-N
//	internal/eval       experiment harness (tables & figures)
//	internal/serve      clap-serve: the always-on online detection daemon
//
// Quickstart — train any registered backend (clap, baseline1) and deploy
// it through the backend-agnostic Pipeline:
//
//	b, _ := clap.NewBackend("clap")         // or "baseline1"
//	_ = b.Train(clap.GenerateBenign(500, 1), func(string, ...any) {})
//	p, _ := clap.NewPipeline(clap.WithBackend(b))
//	cal, _ := p.Calibrate(0.01, clap.TrafficGen(200, 5)) // threshold at 1 % FPR
//	p, _ = clap.NewPipeline(clap.WithBackend(b), clap.WithCalibration(cal))
//	summary, _ := p.Run(clap.PCAPFile("suspect.pcap"),
//	        clap.NewTextReport(os.Stdout, false))
//
// For an always-on deployment, clap-serve wraps the same pipeline in a
// long-running daemon: live ingest from repeatable -source specs
// (afpacket:IFACE[:fanout-id], tail:PATH for a growing pcap, stdin for a
// pcap pipe, replay:PATH, or soak:N[:rate[:attack]] synthetic load),
// Prometheus metrics, flagged-connection and threshold endpoints, and hot
// model reload over HTTP or SIGHUP — see DESIGN.md §7. Quickstart:
//
//	clap-train -in benign.pcap -model clap.model
//	clap-serve -model clap.model -source tail:/var/run/capture.pcap \
//	        -calibrate benign.pcap -fpr 0.01 -alerts alerts.log
//	curl localhost:8080/healthz
//	curl localhost:8080/metrics
//	curl localhost:8080/v1/flagged?n=10
//	curl -X PUT  -d '{"threshold":0.08}'     localhost:8080/v1/threshold
//	curl -X POST -d '{"path":"retrained.model"}' localhost:8080/v1/reload
//
// The serving substrate is reusable from the library too: ServeSource is
// the streaming ingest contract (TailPCAP, FollowPCAP, Soak, Replay),
// NewHotBackend wraps any backend in a reload-safe atomic (model,
// threshold) pair whose threshold is live-adjustable via SetThreshold,
// and NewDedupAlertLog hardens the alert log for continuous operation.
//
// Every verdict can explain itself: -trace-sample arms the provenance
// layer (DESIGN.md §12), attaching to each verdict the (model tag,
// generation, threshold) it was judged under, its cascade stage and
// micro-batch placement, and per-stage latencies — and retaining the
// full per-window error series for every flagged connection plus a
// deterministic sample of the rest. -debug-addr adds a private pprof
// listener. Tracing quickstart:
//
//	clap-serve -model clap.model -source tail:capture.pcap \
//	        -trace-sample 100 -debug-addr 127.0.0.1:6060
//	curl localhost:8080/v1/trace?n=10         # recent decision records
//	curl "localhost:8080/v1/explain?key=1.2.3.4:555%20%3E%205.6.7.8:80"
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile
//
// One daemon can serve a fleet: repeatable -tenant flags add named
// tenants, each owning its model, threshold, calibration and fair-share
// quota while sharing the batched scoring engine, and the ops API scopes
// by ?tenant= — see DESIGN.md §11. Multi-tenant quickstart:
//
//	clap-serve -model clap.model -source tail:core.pcap \
//	        -tenant edge=edge.model:0.08 \
//	        -tenant-source edge=tail:/var/run/edge.pcap \
//	        -tenant-quota edge=64:200:50
//	curl localhost:8080/v1/tenants
//	curl "localhost:8080/v1/summary?tenant=edge"
//	curl -X POST -d '{"path":"edge2.model"}' \
//	        "localhost:8080/v1/reload?tenant=edge"
//
// Long-running deployments drift: the benign score distribution shifts
// and the calibrated threshold silently stops meaning its target FPR.
// The calibration subsystem (DESIGN.md §9) detects and fixes that.
// Calibrate freezes a snapshot — threshold plus the benign-score
// reference distribution as a deterministic quantile sketch — which
// clap-serve persists alongside the model and compares live traffic
// against, exposing clap_serve_drift / clap_serve_operating_fpr gauges,
// /v1/drift, and drift alerts; /v1/reload then re-derives the threshold
// for the incoming model and swaps {model, threshold} in one atomic
// transaction. Drift-aware serving quickstart:
//
//	clap-serve -model clap.model -source tail:capture.pcap \
//	        -calibrate benign.pcap -fpr 0.01 \
//	        -drift-window 256 -drift-max-shift 0.5 -alerts alerts.log
//	curl localhost:8080/v1/drift                 # shift + operating FPR
//	curl -X POST -d '{"calibration":"live"}' \
//	        localhost:8080/v1/reload             # recalibrate in place
//	curl -X POST \
//	  -d '{"path":"retrained.model","calibration":"benign.pcap","fpr":0.01}' \
//	        localhost:8080/v1/reload             # swap model+threshold atomically
//
// And from the library:
//
//	p, _ := clap.NewPipeline(clap.WithBackend(b))
//	cal, _ := p.Calibrate(0.01, clap.PCAPFile("benign.pcap"))
//	_ = clap.SaveCalibrationFile("clap.model.calib", cal)
//	p2, _ := clap.NewPipeline(clap.WithBackend(b), clap.WithCalibration(cal))
//
// Every scoring path — Pipeline.Run, streams, calibration, the CLIs and
// the evaluation suite — runs the engine's micro-batcher. Outside a
// Pipeline, score a corpus through an engine directly; results are
// bit-identical at any worker count:
//
//	eng := clap.NewEngine(0) // 0 = all cores
//	scores := eng.ScoresBatched(b, conns)
//
// The batcher pools stacked-profile windows from many connections into
// one matrix-matrix autoencoder pass instead of one matrix-vector pass
// each — ≥2× single-core throughput for CLAP with bit-identical scores
// (DESIGN.md §8). The micro-batch size is a bench-tuned constant (24),
// not a setting.
//
// When CLAP's accuracy is needed at closer to Baseline #1's throughput,
// tier the two (DESIGN.md §10): a cascade screens every connection with
// the cheap backend and escalates only the suspicious tail to CLAP, whose
// scores on escalated connections are bit-identical to running CLAP
// alone. Calibration composes — one benign corpus sets both the
// escalation threshold (at the escalate-FPR) and the end-to-end operating
// threshold. Quickstart:
//
//	cheap, _ := clap.NewBackend("baseline1")
//	expensive, _ := clap.NewBackend("clap")
//	logf := func(string, ...any) {}
//	_ = cheap.Train(benign, logf)
//	_ = expensive.Train(benign, logf)
//	tier, _ := clap.NewCascade(cheap, expensive, 0.05) // ≤5% of benign escalates
//	p, _ := clap.NewPipeline(clap.WithBackend(tier))
//	cal, _ := p.Calibrate(0.01, clap.PCAPFile("benign.pcap")) // sets both thresholds
//	p, _ = clap.NewPipeline(clap.WithBackend(tier), clap.WithCalibration(cal))
//	summary, _ := p.Run(clap.PCAPFile("suspect.pcap"), clap.NewTextReport(os.Stdout, false))
//
// or from the CLIs: clap-train -backend cascade:baseline1+clap, then
// clap-detect/clap-serve with -escalate-fpr; clap-serve exports
// clap_serve_cascade_escalated_total and the escalation fraction, and
// hot-reloads the expensive stage alone when the incoming model matches
// its tag.
package clap

import (
	"io"
	"os"
	"path/filepath"

	"clap/internal/attacks"
	"clap/internal/backend"
	"clap/internal/calib"
	"clap/internal/core"
	"clap/internal/dpi"
	"clap/internal/engine"
	"clap/internal/flow"
	"clap/internal/metrics"
	"clap/internal/obs"
	"clap/internal/pcapio"
	"clap/internal/trafficgen"
)

// Version identifies this build of the library and its CLIs — surfaced
// in clap-serve's /healthz JSON and the clap_build_info metric, so a
// fleet operator can tell which build produced a verdict or an
// exposition.
const Version = "0.9.0"

// Re-exported core types. Aliases keep the internal packages private while
// giving users one coherent import.
type (
	// Detector is a trained CLAP instance (RNN + autoencoder + feature
	// profile).
	Detector = core.Detector
	// Config carries the pipeline hyper-parameters (Table 6).
	Config = core.Config
	// Score is a connection's verification result.
	Score = core.Score
	// Connection is a capture-ordered train of TCP packets between two
	// endpoints.
	Connection = flow.Connection
	// Strategy is one DPI evasion attack from the 73-strategy corpus.
	Strategy = attacks.Strategy
	// DivergenceResult reports an endhost-vs-DPI behavioural discrepancy.
	DivergenceResult = dpi.Result
	// Engine is the worker-pool scoring engine behind every Pipeline:
	// deterministic micro-batched scoring, flow assembly and ordered
	// streaming. NewEngine builds one for scoring a corpus outside a
	// Pipeline.
	Engine = engine.Engine
	// Backend is the backend-agnostic detection contract every detector
	// family implements: CLAP, Baseline #1, the cascade, and anything
	// registered since.
	Backend = backend.Backend
	// BatchScorer is the batched pair every leaf backend scores through:
	// Windows produces a connection's model inputs, ScoreWindows scores a
	// batch of them. A Backend implemented outside this module must
	// implement it too; NewPipeline and NewHotBackend refuse one that
	// does not.
	BatchScorer = backend.BatchScorer
	// HotBackend is a reload-safe (model, threshold) pair: scoring
	// delegates to the current model behind an atomic pointer, Swap
	// replaces it in place, and SetThreshold installs its operating
	// threshold (0: none) — the one place a Pipeline's threshold lives,
	// and the substrate of clap-serve's hot model reload.
	HotBackend = backend.Hot
	// CLAPBackend adapts the core CLAP/Baseline #1 pipeline family to the
	// Backend contract; mutate Cfg before Train.
	CLAPBackend = backend.CLAP
	// CascadeBackend tiers two backends: a cheap screening stage and an
	// expensive stage that re-scores only the suspicious tail, with
	// bit-identical expensive-stage verdicts (DESIGN.md §10).
	CascadeBackend = backend.Cascade
	// Calibration is a frozen calibration outcome: the operating threshold
	// derived at a target FPR plus the benign-score reference distribution
	// it came from — produced by Pipeline.Calibrate, persisted alongside
	// the model file, and compared against live traffic by drift monitors.
	Calibration = calib.Calibration
	// Decision is one verdict's provenance record: the (model tag,
	// generation, threshold) binding it was judged under, its cascade
	// stage and batch placement, ingest attribution, and stream stage
	// latencies. Attached to streamed Results under WithProvenance and
	// served by clap-serve's /v1/trace.
	Decision = obs.Decision
	// Trace is a Decision plus the full per-window error series and
	// localization — clap-serve's /v1/explain payload, reconstructing
	// "which windows misbehaved" without re-scoring.
	Trace = obs.Trace
)

// Registry tags of the built-in backends, accepted by NewBackend and the
// CLI -backend flags.
const (
	BackendCLAP      = backend.TagCLAP
	BackendBaseline1 = backend.TagBaseline1
	BackendCascade   = backend.TagCascade
)

// NewEngine returns a parallel scoring engine with the given worker count;
// 0 sizes it to the machine. Scores produced through an Engine are
// bit-identical to the serial Detector methods at any worker count.
func NewEngine(workers int) *Engine {
	return engine.New(engine.Options{Workers: workers})
}

// NewBackend instantiates an untrained detection backend by registry tag
// (see BackendTags).
func NewBackend(tag string) (Backend, error) { return backend.New(tag) }

// NewBackendSpec instantiates a backend from a CLI-style spec: a plain
// registry tag, or "cascade:stage1+stage2" naming the cascade's stages
// (e.g. "cascade:baseline1+clap") — what the CLIs' -backend flags accept.
func NewBackendSpec(spec string) (Backend, error) { return backend.NewFromSpec(spec) }

// NewCascade tiers a cheap screening backend in front of an expensive one:
// every connection is scored by stage1, and only those whose stage-1 score
// reaches the calibrated escalation threshold are re-scored by stage2 —
// bit-identically to running stage2 alone. escalateFPR (in (0,1)) bounds
// the fraction of benign traffic that escalates once calibrated; until
// calibration, everything escalates. Calibrate through Pipeline.Calibrate:
// one benign corpus sets the escalation threshold and the end-to-end
// operating threshold together.
func NewCascade(stage1, stage2 Backend, escalateFPR float64) (*CascadeBackend, error) {
	return backend.NewCascade(stage1, stage2, escalateFPR)
}

// BackendTags lists the registered backend tags.
func BackendTags() []string { return backend.Tags() }

// NewHotBackend wraps a trained backend in a reload-safe handle with no
// threshold. Pass the handle to WithBackend and call Swap to hot-reload
// the model, or SetThreshold to change the threshold, while a Pipeline
// stream keeps scoring; each connection is judged wholly by one (model,
// threshold) pair, never a mixture.
func NewHotBackend(b Backend) (*HotBackend, error) { return backend.NewHot(b) }

// SaveBackendFile persists a trained backend to path, creating parent
// directories.
func SaveBackendFile(path string, b Backend) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := backend.Save(f, b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadBackendFile reads a backend model from disk.
func LoadBackendFile(path string) (Backend, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return backend.Load(f)
}

// SaveCalibrationFile persists a calibration snapshot (threshold +
// benign-score reference distribution) to path, creating parent
// directories — conventionally "<model>.calib", next to the tagged model
// file, so a restarted daemon resumes drift monitoring with the same
// reference instead of starting blind. The write goes to a temp file
// renamed into place, so a crash mid-write can never leave a truncated
// snapshot that would make the next start silently score-only.
func SaveCalibrationFile(path string, cal *Calibration) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := cal.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadCalibrationFile reads a calibration snapshot written by
// SaveCalibrationFile.
func LoadCalibrationFile(path string) (*Calibration, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return calib.Load(f)
}

// DefaultConfig returns the paper's CLAP configuration (Table 6).
func DefaultConfig() Config { return core.DefaultConfig() }

// Baseline1Config returns the temporal-context-agnostic baseline
// configuration (§4.1, Baseline #1).
func Baseline1Config() Config { return core.Baseline1Config() }

// Train learns a detector from benign connections only (stages (a)-(c) of
// §3.3). logf may be nil.
func Train(benign []*Connection, cfg Config, logf func(string, ...any)) (*Detector, error) {
	return core.Train(benign, cfg, logf)
}

// Load reads a detector persisted with Detector.Save.
func Load(r io.Reader) (*Detector, error) { return core.Load(r) }

// LoadFile reads a detector from disk.
func LoadFile(path string) (*Detector, error) { return core.LoadFile(path) }

// GenerateBenign synthesizes n benign backbone-style connections with a
// deterministic seed (the stand-in for a MAWI capture; DESIGN.md §1).
func GenerateBenign(n int, seed int64) []*Connection {
	cfg := trafficgen.DefaultConfig(n)
	cfg.Seed = seed
	return trafficgen.Generate(cfg)
}

// ReadPCAP decodes a pcap stream and assembles its TCP/IPv4 packets into
// connections. skipped counts undecodable or non-TCP records.
func ReadPCAP(r io.Reader) (conns []*Connection, skipped int, err error) {
	pkts, skipped, err := pcapio.ReadPackets(r)
	if err != nil {
		return nil, skipped, err
	}
	return flow.Assemble(pkts), skipped, nil
}

// WritePCAP writes connections to w as a classic pcap capture (Ethernet
// framing, payload-stripped records preserving claimed lengths).
func WritePCAP(w io.Writer, conns []*Connection) error {
	pw := pcapio.NewWriter(w, pcapio.LinkTypeEthernet)
	for _, p := range flow.Flatten(conns) {
		if err := pw.WritePacket(p); err != nil {
			return err
		}
	}
	return pw.Flush()
}

// Attacks returns the full 73-strategy evasion corpus (SymTCP, lib•erate,
// Geneva).
func Attacks() []Strategy { return attacks.All() }

// AttackByName looks up one strategy by its paper label.
func AttackByName(name string) (Strategy, bool) { return attacks.ByName(name) }

// CheckEvasion verifies a connection's endhost-vs-DPI divergence against
// the GFW, Zeek and Snort models — the ground truth that an evasion attempt
// would actually have worked (§3.2).
func CheckEvasion(c *Connection) []DivergenceResult { return dpi.CheckAll(c) }

// AUC computes the area under the ROC curve for benign versus adversarial
// score samples.
func AUC(benign, adversarial []float64) float64 { return metrics.AUC(benign, adversarial) }

// EER computes the equal error rate.
func EER(benign, adversarial []float64) float64 { return metrics.EER(benign, adversarial) }

// ThresholdAtFPR picks a detection threshold achieving at most the target
// false-positive rate on benign scores (the deployment knob of §3.3(d)).
func ThresholdAtFPR(benign []float64, fpr float64) float64 {
	return metrics.ThresholdAtFPR(benign, fpr)
}
