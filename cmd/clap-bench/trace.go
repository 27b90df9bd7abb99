package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"clap"
	"clap/internal/afpacket"
	"clap/internal/backend"
	"clap/internal/core"
	"clap/internal/engine"
	"clap/internal/features"
	"clap/internal/flow"
	"clap/internal/nn"
	"clap/internal/packet"
	"clap/internal/pcapio"
	"clap/internal/serve"
	"clap/internal/tcpstate"
)

// span is one traced interval: a stage of the replay run over the whole
// corpus, under the root span of its pass. Times are nanoseconds since the
// trace began. Spans stay in memory and are written out when the run ends.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Items   int    `json:"items"`
	Mallocs uint64 `json:"mallocs"`
	Bytes   uint64 `json:"bytes"`
}

func (s span) ns() float64 { return float64(s.EndNs - s.StartNs) }

type tracer struct {
	t0    time.Time
	spans []span
}

// stage times fn, which returns how many items it processed. Each stage
// consumes the previous stage's materialised output for the whole corpus,
// so the two clock reads and two MemStats reads per stage cost nothing per
// item.
func (t *tracer) stage(parent, name string, fn func() int) span {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Since(t.t0)
	items := fn()
	end := time.Since(t.t0)
	runtime.ReadMemStats(&m1)
	s := span{name, parent, int64(start), int64(end), items, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc}
	t.spans = append(t.spans, s)
	return s
}

// replayBatch is the micro-batch the pipeline scores windows in.
const replayBatch = 24

// replayInputs is everything a replay pass needs, built once.
type replayInputs struct {
	*models
	model  clap.Backend // the workload's own
	cal    *clap.Calibration
	raw    []byte // the corpus as an Ethernet pcap
	tr     truth
	blocks [][]byte // the same frames as TPACKETv3 blocks
}

// replayPass runs the corpus through every layer, one stage at a time, and
// returns this pass's raw numbers by name, and the results of the
// single-worker pipeline runs under clap and under the workload's own model
// for the output checks.
func replayPass(t *tracer, root string, in *replayInputs) (map[string]float64, []clap.Result, []clap.Result, error) {
	v := map[string]float64{}
	det := in.cl.Det
	var stageErr error
	var clapRes, modelRes []clap.Result
	t.stage("", root, func() int {
		n := in.tr.Packets
		fn := float64(n)
		perPkt := func(prefix string, s span) {
			v[prefix+"_ns_per_pkt"] = s.ns() / fn
			v[prefix+"_allocs_per_pkt"] = float64(s.Mallocs) / fn
			v[prefix+"_bytes_per_pkt"] = float64(s.Bytes) / fn
		}

		recs := make([]pcapio.Record, 0, n)
		perPkt("pcapio.read", t.stage(root, "pcapio.read", func() int {
			rd, err := pcapio.NewReader(bytes.NewReader(in.raw))
			if err != nil {
				stageErr = err
				return 0
			}
			for {
				rec, err := rd.Next()
				if err != nil {
					if err != io.EOF {
						stageErr = err
					}
					return len(recs)
				}
				recs = append(recs, rec)
			}
		}))
		if stageErr != nil {
			return 0
		}

		pkts := make([]*packet.Packet, 0, n)
		failed := 0
		perPkt("packet.decode", t.stage(root, "packet.decode", func() int {
			for _, rec := range recs {
				p, err := packet.Decode(rec.Data)
				if err != nil {
					failed++
					continue
				}
				p.Timestamp = rec.Timestamp
				pkts = append(pkts, p)
			}
			return len(recs)
		}))
		v["packet.decode_failed"] = float64(failed)

		// The ring shape cannot be driven end to end from outside (the
		// source's open is unexported); its block walk can.
		perPkt("afpacket.parse", t.stage(root, "afpacket.parse", func() int {
			frames, ipv4 := 0, 0
			for _, b := range in.blocks {
				k, err := afpacket.ParseBlock(b, func(f afpacket.Frame) {
					if _, ok := afpacket.IPv4Payload(f.Data); ok {
						ipv4++
					}
				})
				if err != nil {
					stageErr = err
				}
				frames += k
			}
			if ipv4 != len(recs) && stageErr == nil {
				stageErr = fmt.Errorf("ring walk found %d IPv4 frames in %d, the pcap has %d", ipv4, frames, len(recs))
			}
			return frames
		}))

		fed := make([]*flow.Connection, 0, in.tr.Conns)
		perPkt("flow.feed", t.stage(root, "flow.feed", func() int {
			asm := flow.NewAssembler(func(c *flow.Connection) { fed = append(fed, c) })
			for _, p := range pkts {
				asm.Feed(p)
			}
			asm.Flush()
			return len(pkts)
		}))

		// Open every flow of the corpus at once: what one more open flow
		// holds beyond its packets, and what one FlushIdle scan over them
		// costs when none is idle yet.
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.GC() // twice: the first only moves sync.Pool contents to the victim cache
		runtime.ReadMemStats(&m0)
		asm := flow.NewAssembler(func(*flow.Connection) {})
		for _, p := range pkts {
			asm.Feed(p)
		}
		runtime.GC()
		runtime.ReadMemStats(&m1)
		open := asm.Pending()
		v["flow.open_flow_bytes"] = max(0, float64(m1.HeapAlloc)-float64(m0.HeapAlloc)) / float64(max(1, open))
		const scans = 20
		fi := t.stage(root, "flow.flushidle", func() int {
			for i := 0; i < scans; i++ {
				asm.FlushIdle(time.Hour)
			}
			return open
		})
		v["flow.flushidle_us_per_call"] = fi.ns() / 1e3 / scans
		asm.Flush()

		var conns []*flow.Connection
		perPkt("engine.assemble", t.stage(root, "engine.assemble", func() int {
			conns = engine.New(engine.Options{Workers: 1, Shards: 1}).Assemble(pkts)
			return len(pkts)
		}))
		got := 0
		for _, c := range conns {
			got += c.Len()
		}
		if got != len(pkts) || len(fed) != len(conns) {
			stageErr = fmt.Errorf("assembly lost packets: %d of %d in %d connections (incremental: %d)", got, len(pkts), len(conns), len(fed))
			return 0
		}
		nc := float64(len(conns))

		vecs := make([][][]float64, len(conns))
		vec := t.stage(root, "features.vectorize", func() int {
			for i, c := range conns {
				vecs[i] = det.Profile.Vectorize(c)
			}
			return n
		})
		perPkt("features.vectorize", vec)

		// Not on the inference path: tcpstate labels training data only.
		v["tcpstate.replay_ns_per_pkt"] = t.stage(root, "tcpstate.replay", func() int {
			for _, c := range conns {
				tcpstate.Replay(c, det.Cfg.Endhost)
			}
			return n
		}).ns() / fn

		gru := t.stage(root, "nn.gru", func() int {
			for _, vs := range vecs {
				if len(vs) == 0 {
					continue
				}
				_, _, release := det.RNN.ForwardGatesBatchPooled(features.RNNInputs(vs))
				release()
			}
			return n
		})
		perPkt("nn.gru", gru)

		// Vectorise, gates and stacking together, as the scoring path runs
		// them (pooled buffers, recycled at once), and the same loop without
		// the stacking: the stages above keep every vector alive for the
		// next one, so their sum runs colder than the fused path and cannot
		// be subtracted from it.
		windows := 0
		stacked := t.stage(root, "core.stacked", func() int {
			for _, c := range conns {
				w := det.StackedProfilesBatched(c)
				windows += len(w)
				det.RecycleStacked(w)
			}
			return n
		})
		unstacked := t.stage("core.stacked", "core.stacked.vectorize+gru", func() int {
			for _, c := range conns {
				if vs := det.Profile.Vectorize(c); len(vs) > 0 {
					_, _, release := det.RNN.ForwardGatesBatchPooled(features.RNNInputs(vs))
					release()
				}
			}
			return n
		})
		v["core.stack_bytes_per_pkt"] = (float64(stacked.Bytes) - float64(unstacked.Bytes)) / fn
		v["core.windows_per_pkt"] = float64(windows) / fn

		flat := make([][]float64, 0, windows)
		bounds := make([]int, 0, len(conns)+1)
		for _, c := range conns {
			bounds = append(bounds, len(flat))
			flat = append(flat, det.StackedProfiles(c)...)
		}
		bounds = append(bounds, len(flat))
		errs := make([]float64, 0, len(flat))
		ae := t.stage(root, "nn.ae", func() int {
			for lo := 0; lo < len(flat); lo += replayBatch {
				errs = append(errs, det.AE.ErrorsBatch(flat[lo:min(lo+replayBatch, len(flat))])...)
			}
			return len(flat)
		})
		v["nn.ae_ns_per_window"] = ae.ns() / float64(len(flat))
		v["nn.ae_allocs_per_window"] = float64(ae.Mallocs) / float64(len(flat))

		summ := t.stage(root, "core.summarize", func() int {
			for i := range conns {
				det.ScoreFromErrors(errs[bounds[i]:bounds[i+1]])
			}
			return len(conns)
		})
		v["core.summarize_ns_per_conn"] = summ.ns() / nc

		// The cascade's screen as it runs, then its autoencoder alone over
		// materialised windows for the nn share, then the verdict stage
		// over the connections the screen escalates.
		s1, s2 := in.ca.Stages()
		screen := t.stage(root, "backend.screen", func() int {
			for _, c := range conns {
				s1.ScoreConn(c)
			}
			return n
		})
		v["backend.screen_ns_per_pkt"] = screen.ns() / fn
		var s1wins [][]float64
		for _, c := range conns {
			s1wins = append(s1wins, s1.(backend.BatchScorer).Windows(c)...)
		}
		screenAE := t.stage("backend.screen", "backend.screen.ae", func() int {
			for lo := 0; lo < len(s1wins); lo += replayBatch {
				s1.(backend.BatchScorer).ScoreWindows(s1wins[lo:min(lo+replayBatch, len(s1wins))])
			}
			return len(s1wins)
		})
		var escalated []*flow.Connection
		for _, c := range conns {
			if _, up, _ := in.ca.WindowErrorsRouted(c); up {
				escalated = append(escalated, c)
			}
		}
		stage2 := t.stage(root, "backend.stage2", func() int {
			bs := s2.(*backend.CLAP)
			k := 0
			for _, c := range escalated {
				w := bs.Windows(c)
				var e []float64
				for lo := 0; lo < len(w); lo += replayBatch {
					e = append(e, bs.ScoreWindows(w[lo:min(lo+replayBatch, len(w))])...)
				}
				bs.RecycleWindows(w)
				bs.Summarize(e)
				k += c.Len()
			}
			return k
		})
		v["backend.stage2_ns_per_pkt"] = stage2.ns() / fn

		// The whole pipeline on one worker and one shard: what the stages
		// above should add up to.
		run := func(name string, b clap.Backend, cal *clap.Calibration, workers int) span {
			var results []clap.Result
			s := t.stage(root, name, func() int {
				opts := []clap.PipelineOption{clap.WithBackend(b), clap.WithCalibration(cal)}
				if workers > 0 {
					opts = append(opts, clap.WithWorkers(workers), clap.WithShards(workers))
				}
				p, err := clap.NewPipeline(opts...)
				if err != nil {
					stageErr = err
					return 0
				}
				sum, err := p.Run(clap.PCAPStream(bytes.NewReader(in.raw)), clap.NewJSONLines(&countWriter{}))
				if err != nil {
					stageErr = err
					return 0
				}
				results = sum.Results
				return n
			})
			if b == clap.Backend(in.cl) {
				clapRes = results
			}
			if b == in.model {
				modelRes = results
			}
			return s
		}
		run1 := run("pipeline.run1.clap", in.cl, in.clCal, 1)
		in.ca.ResetEscalationCounts()
		run1c := run("pipeline.run1.cascade", in.ca, in.caCal, 1)
		if ev, esc := in.ca.EscalationCounts(); ev > 0 {
			v["backend.escalated_fraction"] = float64(esc) / float64(ev)
		}
		v["pipeline.run1_ns_per_pkt.clap"] = run1.ns() / fn
		v["pipeline.run1_ns_per_pkt.cascade"] = run1c.ns() / fn
		own := run1
		if in.model == clap.Backend(in.ca) {
			own = run1c
		}
		runN := run("pipeline.runN", in.model, in.cal, 0)

		cw := &countWriter{}
		sink := t.stage(root, "sink.jsonlines", func() int {
			s := clap.NewJSONLines(cw)
			for _, r := range clapRes {
				if err := s.Emit(r); err != nil {
					stageErr = err
				}
			}
			return len(clapRes)
		})
		v["sink.jsonlines_ns_per_conn"] = sink.ns() / nc
		v["sink.bytes_per_conn"] = float64(cw.n) / nc

		// What derive needs of this pass, whole-stage nanoseconds by name.
		for name, sp := range map[string]span{
			"gru": gru, "stacked": stacked, "unstacked": unstacked, "ae": ae, "summarize": summ,
			"screen": screen, "screen.ae": screenAE, "stage2": stage2,
			"run1.clap": run1, "run1.cascade": run1c, "run1.own": own, "runN": runN, "sink": sink,
		} {
			v[rawNs+name] = sp.ns()
		}
		return n
	})
	if stageErr != nil {
		return nil, nil, nil, stageErr
	}
	return v, clapRes, modelRes, nil
}

// rawNs prefixes the whole-stage times a pass hands to derive.
const rawNs = "raw."

// derive computes, from the stage times aggregated over the passes, the
// numbers that relate stages to one another. Ingest, scoring and the sink
// are what a run is made of; whatever the stages do not cover is reported,
// not hidden.
func derive(v map[string]float64, pkts int) {
	fn := float64(pkts)
	ns := func(name string) float64 { return v[rawNs+name] }
	v["core.stack_ns_per_pkt"] = (ns("stacked") - ns("unstacked")) / fn
	v["engine.parallel_efficiency"] = ns("run1.own") / (ns("runN") * float64(runtime.GOMAXPROCS(0)))

	ingest := (v["pcapio.read_ns_per_pkt"] + v["packet.decode_ns_per_pkt"] + v["engine.assemble_ns_per_pkt"]) * fn
	nnNs := ns("gru") + ns("ae")
	scoring := ns("stacked") + ns("ae") + ns("summarize")
	v["pipeline.nn_share.clap"] = nnNs / ns("run1.clap")
	v["trace.unattributed_share.clap"] = 1 - (ingest+scoring+ns("sink"))/ns("run1.clap")
	// Of the verdict stage's time, the nn part is taken to be the same
	// fraction as over the whole corpus.
	v["pipeline.nn_share.cascade"] = (ns("screen.ae") + ns("stage2")*nnNs/scoring) / ns("run1.cascade")
	v["trace.unattributed_share.cascade"] = 1 - (ingest+ns("screen")+ns("stage2")+ns("sink"))/ns("run1.cascade")
}

// kernelRates times the matrix kernels alone at the model's real shapes,
// 24 rows wide as the scoring path calls them.
func kernelRates(det *core.Detector, v map[string]float64) {
	gflops := func(flopsPerCall float64, call func()) float64 {
		calls := 0
		start := time.Now()
		for time.Since(start) < 30*time.Millisecond {
			for i := 0; i < 100; i++ {
				call()
			}
			calls += 100
		}
		return flopsPerCall * float64(calls) / float64(time.Since(start).Nanoseconds())
	}
	mat := func(w *nn.Tensor) float64 {
		r, c := w.R, w.C
		x, out := make([]float64, replayBatch*c), make([]float64, replayBatch*r)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		return gflops(2*float64(r*c*replayBatch), func() { w.MulMat(x, replayBatch, out) })
	}
	v["nn.mulmat_gflops.gru"] = mat(det.RNN.Wz)
	w0 := det.AE.Layers[0].W
	v["nn.mulmat_gflops.ae345x160"] = mat(w0)
	x, out := make([]float64, w0.C), make([]float64, w0.R)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	v["nn.mulvec_gflops.ae345x160"] = gflops(2*float64(w0.R*w0.C), func() { w0.MulVec(x, out) })
}

// tpacketBlocks lays the pcap's frames out as TPACKETv3 blocks of 256.
func tpacketBlocks(raw []byte) ([][]byte, error) {
	rd, err := pcapio.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	ether := make([]byte, 14)
	ether[12], ether[13] = 0x08, 0x00
	var blocks [][]byte
	bb := afpacket.NewBlockBuilder()
	for k := 0; ; k++ {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		frame := append(append([]byte(nil), ether...), rec.Data...)
		bb.Append(rec.Timestamp, frame, rec.OrigLen+len(ether))
		if k%256 == 255 {
			blocks = append(blocks, bb.Bytes())
			bb = afpacket.NewBlockBuilder()
		}
	}
	return append(blocks, bb.Bytes()), nil
}

// promScrape keeps what the traced serve run reads off /metrics: the
// deepest queue seen over the scrapes that count, and the text of the last
// one.
type promScrape struct {
	queueMax float64
	last     string
	watch    func() bool // nil, or whether the queue depth counts right now
}

func (p *promScrape) scrape(h http.Handler) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	p.last = rec.Body.String()
	if q, ok := promValue(p.last, "clap_serve_queue_depth"); ok && q > p.queueMax && (p.watch == nil || p.watch()) {
		p.queueMax = q
	}
}

// promValue finds an unlabelled sample.
func promValue(text, name string) (float64, bool) {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(rest, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// promSum adds every sample of a labelled family.
func promSum(text, name string) float64 {
	total := 0.0
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+"{"); ok {
			if i := strings.LastIndexByte(rest, ' '); i >= 0 {
				if f, err := strconv.ParseFloat(rest[i+1:], 64); err == nil {
					total += f
				}
			}
		}
	}
	return total
}

// promP50ms is the median of a histogram family's series, interpolated
// inside its bucket as Prometheus does, in milliseconds. labels is what
// the series carries before le, e.g. `stage="queue",`.
func promP50ms(text, name, labels string) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + "_bucket{" + labels + `le="`
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		leStr, cumStr, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		le := math.Inf(1)
		if leStr != "+Inf" {
			le, _ = strconv.ParseFloat(leStr, 64)
		}
		cum, _ := strconv.ParseFloat(cumStr, 64)
		bs = append(bs, bucket{le, cum})
	}
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	half := bs[len(bs)-1].cum / 2
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= half {
			if math.IsInf(b.le, 1) {
				return lo * 1e3
			}
			return (lo + (b.le-lo)*(half-below)/(b.cum-below)) * 1e3
		}
		lo, below = b.le, b.cum
	}
	return 0
}

// traceSampleEvery arms the server's tracing layer (ingest-wait and
// batch-fill histograms, provenance on every verdict) while deep-tracing
// almost nothing.
const traceSampleEvery = 1000

// tracedServe runs the workload's serving shape once with the server's own
// tracing armed, scraping /metrics as it goes. Workloads that do not serve
// (file-*) are run saturated through the same server, so every traced run
// reports every layer.
func tracedServe(workload string, in *replayInputs, conns []*flow.Connection, seconds float64, v map[string]float64) ([]verdict, error) {
	ps := &promScrape{}
	var live []verdict
	var err error
	v["loadgen.late_ms_max"] = 0 // closed loops have no schedule to be late for
	switch workload {
	case "live-short":
		err = livePass(in.model, in.cal, in.raw, liveIdleFlush, traceSampleEvery, ps.scrape, collect(&live))
	default:
		g := newLoadGen(conns, openLoopRate(workload), seconds)
		if g.rate > 0 {
			// A saturated queue is full by design; the question is whether
			// the schedule alone builds a backlog.
			ps.watch = func() bool { return !g.saturating.Load() }
		}
		cfg := serve.Config{Backend: in.model, CalibrationSnapshot: in.cal, TraceSample: traceSampleEvery, OnResult: g.onResult}
		err = serveUntilDone(cfg, g, g.done, ps.scrape)
		if g.open != nil {
			v["loadgen.late_ms_max"] = quantile(g.open.late, 1)
		}
	}
	if err != nil {
		return nil, err
	}
	const stages = "clap_serve_stage_latency_seconds"
	v["serve.queue_depth_max"] = ps.queueMax
	v["serve.ingest_wait_ms_p50"] = promP50ms(ps.last, "clap_serve_ingest_wait_seconds", "")
	v["serve.stage_queue_ms_p50"] = promP50ms(ps.last, stages, `stage="queue",`)
	v["serve.stage_score_ms_p50"] = promP50ms(ps.last, stages, `stage="score",`)
	v["serve.stage_emit_ms_p50"] = promP50ms(ps.last, stages, `stage="emit",`)
	v["serve.batch_fill"], _ = promValue(ps.last, "clap_serve_batch_fill")
	v["serve.shed_total"] = promSum(ps.last, "clap_serve_source_dropped_total")
	return live, nil
}

// collect returns an OnResult that appends every verdict to dst.
func collect(dst *[]verdict) func(clap.Result) {
	return func(r clap.Result) { *dst = append(*dst, verdictOf(r)) }
}

// traceRun is the traced run of one workload: its corpus, cut to a size a
// single goroutine replays in seconds, goes through every layer one stage
// at a time, three passes, the median of each number; then the workload's
// serving shape runs once with the server's tracing armed. The output
// checks that need an oracle live here, off the timed path.
func traceRun(workload string, sz sizes, seed int64) (map[string]float64, int, []string, error) {
	m, err := trainModels(sz, true)
	if err != nil {
		return nil, 0, nil, err
	}
	in := &replayInputs{models: m}
	in.model, in.cal = m.pick(workload)
	var gen []*flow.Connection
	if workload == "live-short" {
		gen, in.tr = shortCorpus(sz.traceShortConns, seed)
	} else {
		gen, in.tr = mixedCorpus(sz.traceMixedConns, seed)
	}
	if in.raw, err = pcapBytes(gen); err != nil {
		return nil, 0, nil, err
	}
	if in.blocks, err = tpacketBlocks(in.raw); err != nil {
		return nil, 0, nil, err
	}

	t := &tracer{t0: time.Now()}
	var per []map[string]float64
	var clapRes, modelRes []clap.Result
	for i := 0; i < sz.tracePasses; i++ {
		v, cr, mr, err := replayPass(t, fmt.Sprintf("replay.%d", i), in)
		if err != nil {
			return nil, 0, nil, err
		}
		per, clapRes, modelRes = append(per, v), cr, mr
	}
	// Over the passes: times take the fast side like everywhere else,
	// counts the median; what relates stages is derived from those.
	v := map[string]float64{}
	for name := range per[0] {
		var xs []float64
		for _, p := range per {
			xs = append(xs, p[name])
		}
		if strings.HasPrefix(name, rawNs) || strings.Contains(name, "_ns_") || strings.Contains(name, "_us_") {
			v[name] = fastCost(xs)
		} else {
			v[name] = median(xs)
		}
	}
	derive(v, in.tr.Packets)
	kernelRates(in.cl.Det, v)

	var problems []string
	problem := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	if v["packet.decode_failed"] != 0 {
		problem("%v records failed to decode", v["packet.decode_failed"])
	}

	// The batched pipeline against the serial Detector.Score oracle, bit
	// for bit, on up to 500 connections spread over the corpus.
	for i, step := 0, max(1, len(clapRes)/500); i < len(clapRes); i += step {
		r := clapRes[i]
		if want := in.cl.Det.Score(r.Conn).Adversarial; math.Float64bits(want) != math.Float64bits(r.Score) {
			problem("connection %d (%s): pipeline score %v, serial oracle %v", i, r.Conn.Key, r.Score, want)
			break
		}
	}

	// The live path over the same bytes: with idle flush off it must give
	// the batch run's verdicts exactly; with it on, the extra verdicts are
	// the connections a flush cut in two.
	batch := make([]verdict, len(modelRes))
	conns := make([]*flow.Connection, len(modelRes))
	for i, r := range modelRes {
		batch[i], conns[i] = verdictOf(r), r.Conn
	}
	var follow []verdict
	if err := livePass(in.model, in.cal, in.raw, -1, 0, nil, collect(&follow)); err != nil {
		return nil, 0, nil, err
	}
	if a, b := sortedDigest(follow), sortedDigest(batch); a != b || len(follow) != len(batch) {
		problem("FollowPCAP gave %d verdicts (digest %s), Pipeline.Run %d (%s) on the same bytes", len(follow), a, len(batch), b)
	}
	live, err := tracedServe(workload, in, conns, sz.traceServeSeconds, v)
	if err != nil {
		return nil, 0, nil, err
	}
	if workload != "live-short" {
		if err := livePass(in.model, in.cal, in.raw, liveIdleFlush, 0, nil, collect(&live)); err != nil {
			return nil, 0, nil, err
		}
	}
	v["flow.split_conns"] = float64(len(live) - len(batch))

	if err := writeSpans(workload, t.spans); err != nil {
		return nil, 0, nil, err
	}
	return v, in.tr.Packets * sz.tracePasses, problems, nil
}

// writeSpans leaves the run's spans beside the other scratch files.
func writeSpans(workload string, spans []span) error {
	dir := filepath.Join(".bench_build", "clap-bench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), raw, 0o644)
}
