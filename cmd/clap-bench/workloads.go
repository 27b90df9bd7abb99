package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"clap"
	"clap/internal/serve"
)

// runResult is what one timed run measured. The child process prints it as
// JSON; the parent adds the set-up time and renders the contract line.
type runResult struct {
	Passes int `json:"passes"`
	Conns  int `json:"conns"`  // verdicts seen
	Fed    int `json:"fed"`    // packets handed to the system in timed passes
	Failed int `json:"failed"` // of those, packets that reached no finite-score verdict

	LoadS            float64 `json:"load_s"` // untimed preparation in the child, counted as set-up
	PktsPerS         float64 `json:"pkts_per_s"`
	CPUUsPerPkt      float64 `json:"cpu_us_per_pkt"`
	AllocBytesPerPkt float64 `json:"alloc_bytes_per_pkt"`
	AllocsPerPkt     float64 `json:"allocs_per_pkt"`
	PeakRSSMB        float64 `json:"peak_rss_mb"`
	VerdictP50Ms     float64 `json:"verdict_p50_ms"`
	VerdictP95Ms     float64 `json:"verdict_p95_ms"`
	LatencySamples   int     `json:"latency_samples"`

	AUC    float64 `json:"auc"`          // 0 when the corpus carries no attacks
	Digest string  `json:"score_digest"` // FNV-64 over key and score bits, first pass, emit order
	// Open loop only: how late the generator ran at its worst send and at
	// the 99th percentile of its sends, and why the run must not be
	// reported, if so.
	LateMsMax float64 `json:"late_ms_max"`
	LateMsP99 float64 `json:"late_ms_p99"`
	Invalid   string  `json:"invalid,omitempty"`
	// Open loop only: the tail over the whole phase, disturbed windows
	// included, and how many attempts the phase took.
	VerdictP95MsAll float64 `json:"verdict_p95_ms_all,omitempty"`
	OpenAttempts    int     `json:"open_attempts,omitempty"`

	Problems []string `json:"problems,omitempty"` // failed output checks
}

// lateLimitMs invalidates an open-loop run: a generator this late for more
// than one send in a hundred was not offering the stated rate, so its
// latencies describe another workload. (One late send is a hiccup of the
// box, and is charged to the latencies like any stall.)
const lateLimitMs = 50

// passStat is one timed pass (or one saturated phase).
type passStat struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	pkts           int
}

// snapshot is the process state a pass is measured between.
type snapshot struct {
	at  time.Time
	cpu time.Duration
	ms  runtime.MemStats
}

func snap() *snapshot {
	s := &snapshot{}
	runtime.ReadMemStats(&s.ms)
	s.cpu = cpuTime()
	s.at = time.Now()
	return s
}

func (s *snapshot) until(e *snapshot, pkts int) passStat {
	return passStat{
		wall: e.at.Sub(s.at), cpu: e.cpu - s.cpu,
		mallocs: e.ms.Mallocs - s.ms.Mallocs, bytes: e.ms.TotalAlloc - s.ms.TotalAlloc,
		pkts: pkts,
	}
}

// The box this runs on shares its cores: for seconds at a time a neighbour
// slows every pass by a quarter or more, and never speeds one up. A run
// therefore measures many short passes (or windows) and reports, for every
// time-dependent number, the decile on the fast side — the speed of the
// undisturbed machine — where a median would report the neighbour. Counts
// that do not depend on time (allocations) keep the median.
func fastRate(vals []float64) float64 { return quantile(vals, 0.9) }
func fastCost(vals []float64) float64 { return quantile(vals, 0.1) }

// summarize fills the per-packet metrics from the passes.
func (r *runResult) summarize(passes []passStat) {
	var rate, cpu, ab, an []float64
	for _, p := range passes {
		if p.pkts == 0 || p.wall <= 0 {
			continue
		}
		n := float64(p.pkts)
		rate = append(rate, n/p.wall.Seconds())
		cpu = append(cpu, float64(p.cpu.Microseconds())/n)
		ab = append(ab, float64(p.bytes)/n)
		an = append(an, float64(p.mallocs)/n)
	}
	r.Passes = len(passes)
	r.PktsPerS, r.CPUUsPerPkt = fastRate(rate), fastCost(cpu)
	r.AllocBytesPerPkt, r.AllocsPerPkt = median(ab), median(an)
}

func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// verdict is what the output checks need of one result, copied out of the
// emit path into preallocated storage so the checks cost the timed run
// nothing.
type verdict struct {
	key   clapKey
	score float64
	pkts  int32
}

type clapKey = [12]byte // client ip, port, server ip, port

func keyOf(c *clap.Connection) (k clapKey) {
	copy(k[0:4], c.Key.Client.IP[:])
	binary.BigEndian.PutUint16(k[4:6], c.Key.Client.Port)
	copy(k[6:10], c.Key.Server.IP[:])
	binary.BigEndian.PutUint16(k[10:12], c.Key.Server.Port)
	return k
}

func verdictOf(r clap.Result) verdict {
	return verdict{key: keyOf(r.Conn), score: r.Score, pkts: int32(r.Conn.Len())}
}

// digest is FNV-64 over key and score bits in the given order.
func digest(vs []verdict) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		h.Write(v.key[:])
		binary.BigEndian.PutUint64(b[:], math.Float64bits(v.score))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// finitePackets counts the packets of verdicts whose score is finite.
func finitePackets(vs []verdict) int {
	n := 0
	for _, v := range vs {
		if !math.IsNaN(v.score) && !math.IsInf(v.score, 0) {
			n += int(v.pkts)
		}
	}
	return n
}

// auc ranks attack-carrying against benign connections by ground truth
// (0 when the corpus has only one of the two).
func auc(vs []verdict, tr truth) float64 {
	attack := make(map[clapKey]bool, len(tr.AttackKeys))
	for _, h := range tr.AttackKeys {
		var k clapKey
		if raw, err := hex.DecodeString(h); err == nil && len(raw) == len(k) {
			copy(k[:], raw)
			attack[k] = true
		}
	}
	var ben, adv []float64
	for _, v := range vs {
		if attack[v.key] {
			adv = append(adv, v.score)
		} else {
			ben = append(ben, v.score)
		}
	}
	if len(adv) == 0 || len(ben) == 0 {
		return 0
	}
	return clap.AUC(ben, adv)
}

func loadTruth(dir string) (truth, error) {
	var tr truth
	raw, err := os.ReadFile(filepath.Join(dir, truthFile))
	if err != nil {
		return tr, err
	}
	return tr, json.Unmarshal(raw, &tr)
}

func loadModel(dir string) (clap.Backend, *clap.Calibration, error) {
	b, err := clap.LoadBackendFile(filepath.Join(dir, modelFile))
	if err != nil {
		return nil, nil, err
	}
	cal, err := clap.LoadCalibrationFile(filepath.Join(dir, calibFile))
	if err != nil {
		return nil, nil, err
	}
	return b, cal, nil
}

// emitLog records every verdict with its delay from the pass start, into
// storage kept from pass to pass so that recording costs the timed run
// nothing. It is the Sink of the file passes and the OnResult of the live
// ones.
type emitLog struct {
	start time.Time
	ms    []float64
	vs    []verdict
}

func (e *emitLog) reset() { e.start, e.ms, e.vs = time.Now(), e.ms[:0], e.vs[:0] }

func (e *emitLog) record(r clap.Result) {
	e.ms = append(e.ms, float64(time.Since(e.start))/1e6)
	e.vs = append(e.vs, verdictOf(r))
}

func (e *emitLog) Emit(r clap.Result) error      { e.record(r); return nil }
func (e *emitLog) Finish(*clap.RunSummary) error { return nil }

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// timePasses runs pass over a corpus of pkts packets until the time is up,
// at least once, and fills the result from the passes: each is measured
// whole, its verdicts (left in log) are checked, and a verdict's delay
// counts from the start of its pass. check sees every pass's verdicts.
func (r *runResult) timePasses(seconds float64, pkts int, log *emitLog, pass func() error, check func(first bool, vs []verdict)) error {
	var passes []passStat
	var p50, p95 []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for first := true; first || time.Now().Before(deadline); first = false {
		before := snap()
		log.reset()
		if err := pass(); err != nil {
			return err
		}
		passes = append(passes, before.until(snap(), pkts))
		p50 = append(p50, quantile(log.ms, 0.5))
		p95 = append(p95, quantile(log.ms, 0.95))
		r.Conns += len(log.vs)
		r.Fed += pkts
		r.Failed += pkts - finitePackets(log.vs)
		r.LatencySamples = len(log.ms)
		check(first, log.vs)
	}
	r.summarize(passes)
	r.VerdictP50Ms, r.VerdictP95Ms = fastCost(p50), fastCost(p95)
	return nil
}

// runFile is the clap-detect shape, closed loop: each pass loads the model,
// builds the pipeline and runs the capture file into a JSON-lines sink. A
// verdict's delay counts from the pass start, when the whole capture is on
// disk.
func runFile(dir string, seconds float64) (*runResult, error) {
	tr, err := loadTruth(dir)
	if err != nil {
		return nil, err
	}
	res := &runResult{}
	log := &emitLog{}
	err = res.timePasses(seconds, tr.Packets, log, func() error {
		b, cal, err := loadModel(dir)
		if err != nil {
			return err
		}
		p, err := clap.NewPipeline(clap.WithBackend(b), clap.WithCalibration(cal))
		if err != nil {
			return err
		}
		_, err = p.Run(clap.PCAPFile(filepath.Join(dir, pcapFile)), clap.NewJSONLines(&countWriter{}), log)
		return err
	}, func(first bool, vs []verdict) {
		if d := digest(vs); first {
			res.Digest, res.AUC = d, auc(vs, tr)
		} else if d != res.Digest {
			res.problem("score digest %s differs from the first pass's %s", d, res.Digest)
		}
	})
	return res, err
}

// phase is what the load generator records of one phase, filled by
// onResult on the emit goroutine in delivery order.
type phase struct {
	start time.Time   // open loop only
	due   []time.Time // open loop only: written before deliver(i), read at verdict i; the serve queue orders the two
	latMs []float64   // open loop only: due → verdict
	late  []float64   // open loop only: due → send, ms
	vs    []verdict
	at    []time.Time // open loop only: verdict times
}

func newPhase(room int, openLoop bool) *phase {
	p := &phase{vs: make([]verdict, 0, room)}
	if openLoop {
		p.due, p.latMs, p.at = make([]time.Time, room), make([]float64, 0, room), make([]time.Time, 0, room)
		p.late = make([]float64, 0, room)
	}
	return p
}

// loadGen is the benchmark-owned ServeSource of the serve workloads. It
// first delivers on a fixed schedule whatever the server does (open loop),
// timing each verdict from the instant its connection was due, not from
// when it was sent, so a stall is charged to every connection it delayed;
// then it delivers as fast as backpressure accepts (closed loop) to find
// the capacity. One goroutine drives all load.
type loadGen struct {
	conns   []*clap.Connection
	rate    float64 // open loop, connections per second
	openFor time.Duration
	satFor  time.Duration

	cur         *phase       // receiving verdicts; swapped only when nothing is in flight
	emitted     atomic.Int64 // verdicts so far, so Stream can wait for a drain
	emittedPkts atomic.Int64 // and their packets, for the saturated phase's windows
	saturating  atomic.Bool  // the open loop is over

	open, sat  *phase // the last open-loop attempt, and the saturated phase
	attempts   int
	satWindows []passStat // the saturated phase in half-second windows
	done       chan struct{}
}

// openAttempts is how often the open loop is tried before a generator that
// ran late (a disturbed box, not the server) invalidates the run.
const openAttempts = 3

func newLoadGen(conns []*clap.Connection, rate, seconds float64) *loadGen {
	g := &loadGen{
		conns:   append([]*clap.Connection(nil), conns...),
		rate:    rate,
		openFor: time.Duration(0.6 * seconds * float64(time.Second)),
		satFor:  time.Duration(0.4 * seconds * float64(time.Second)),
		done:    make(chan struct{}),
	}
	if rate <= 0 { // saturation only
		g.openFor, g.satFor = 0, time.Duration(seconds*float64(time.Second))
	}
	// The corpus is delivered in a cycle, and with tracing armed the server
	// stamps each connection it accepts: no object may be in flight twice.
	// Far more distinct ones than the queue and the stream can hold.
	for n := len(conns); n > 0 && len(g.conns) < 4*256; {
		c := *g.conns[len(g.conns)-n]
		g.conns = append(g.conns, &c)
	}
	return g
}

func (g *loadGen) Name() string { return "loadgen" }

func (g *loadGen) onResult(r clap.Result) {
	now := time.Now()
	p := g.cur
	if p.due != nil {
		p.latMs = append(p.latMs, float64(now.Sub(p.due[len(p.vs)]))/1e6)
		p.at = append(p.at, now)
	}
	p.vs = append(p.vs, verdictOf(r))
	g.emittedPkts.Add(int64(r.Conn.Len()))
	g.emitted.Add(1)
}

// drain waits, outside every measured interval, until n verdicts in all
// have been emitted.
func (g *loadGen) drain(ctx context.Context, n int) {
	for g.emitted.Load() < int64(n) && ctx.Err() == nil {
		time.Sleep(200 * time.Microsecond)
	}
}

func (g *loadGen) Stream(ctx context.Context, deliver func(*clap.Connection)) (int, error) {
	defer close(g.done)
	sent := 0
	nOpen := int(g.rate * g.openFor.Seconds())
	for nOpen > 0 && g.attempts < openAttempts && ctx.Err() == nil {
		g.attempts++
		p := newPhase(nOpen, true)
		g.cur, g.open = p, p
		p.start = time.Now()
		for i := 0; i < nOpen && ctx.Err() == nil; i++ {
			due := p.start.Add(time.Duration(float64(i) / g.rate * float64(time.Second)))
			time.Sleep(time.Until(due))
			p.late = append(p.late, float64(time.Since(due))/1e6)
			p.due[i] = due
			deliver(g.conns[i%len(g.conns)])
		}
		sent += nOpen
		g.drain(ctx, sent)
		if quantile(p.late, 0.99) <= lateLimitMs {
			break
		}
	}

	// Room for a saturated phase several times faster than any seen, so
	// the recorder does not allocate while CPU and allocations are being
	// charged to the server. The generator cuts the phase into half-second
	// windows as it goes: each is measured like a pass.
	g.sat = newPhase(1<<14*(1+int(g.satFor.Seconds())), false)
	g.cur = g.sat
	g.saturating.Store(true)
	from, pkts := snap(), g.emittedPkts.Load()
	window := min(satWindow, g.satFor)
	next := from.at.Add(window)
	for i, deadline := 0, from.at.Add(g.satFor); ctx.Err() == nil; i++ {
		if now := time.Now(); !now.Before(next) {
			to, seen := snap(), g.emittedPkts.Load()
			g.satWindows = append(g.satWindows, from.until(to, int(seen-pkts)))
			from, pkts, next = to, seen, to.at.Add(window)
			if !now.Before(deadline) {
				break
			}
		}
		deliver(g.conns[i%len(g.conns)])
		sent++
	}
	g.drain(ctx, sent)
	return 0, nil
}

// satWindow is the window both serve phases are read in.
const satWindow = 500 * time.Millisecond

// windowQuantiles cuts the open-loop phase into half-second windows by
// verdict time and returns the q-quantile of the latencies in each. The
// verdicts of the drain after the last send count to the last window.
func (p *phase) windowQuantiles(span time.Duration, q float64) []float64 {
	byWin := make([][]float64, max(1, int(span/satWindow)))
	for i, at := range p.at {
		w := min(int(at.Sub(p.start)/satWindow), len(byWin)-1)
		byWin[w] = append(byWin[w], p.latMs[i])
	}
	var out []float64
	for _, lat := range byWin {
		if len(lat) > 0 {
			out = append(out, quantile(lat, q))
		}
	}
	return out
}

// runServe is the clap-serve shape in-process: serve.New with the clap
// model, queue 256, backpressure, no HTTP listener, fed by loadGen.
func runServe(dir string, rate, seconds float64) (*runResult, error) {
	begin := time.Now()
	tr, err := loadTruth(dir)
	if err != nil {
		return nil, err
	}
	b, cal, err := loadModel(dir)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(dir, pcapFile))
	if err != nil {
		return nil, err
	}
	conns, _, err := clap.ReadPCAP(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	g := newLoadGen(conns, rate, seconds)
	loadS := time.Since(begin).Seconds()
	if err := serveUntilDone(serve.Config{Backend: b, CalibrationSnapshot: cal, OnResult: g.onResult}, g, g.done, nil); err != nil {
		return nil, err
	}
	res := g.result()
	res.LoadS = loadS
	res.AUC = auc(append(append([]verdict(nil), g.open.vs...), g.sat.vs...), tr)
	return res, nil
}

// result reads a finished generator. Every connection delivered must have
// come back, in order, with a finite score.
func (g *loadGen) result() *runResult {
	if g.open == nil {
		g.open = newPhase(0, true)
	}
	res := &runResult{LateMsMax: quantile(g.open.late, 1), LateMsP99: quantile(g.open.late, 0.99), OpenAttempts: g.attempts}
	res.summarize(g.satWindows)
	// Like every other time: the undisturbed windows speak for the server.
	res.VerdictP50Ms = fastCost(g.open.windowQuantiles(g.openFor, 0.5))
	res.VerdictP95Ms = fastCost(g.open.windowQuantiles(g.openFor, 0.95))
	res.VerdictP95MsAll = quantile(g.open.latMs, 0.95)
	res.LatencySamples = len(g.open.latMs)
	res.Conns = len(g.open.vs) + len(g.sat.vs)
	res.Digest = digest(g.open.vs)
	for _, p := range []*phase{g.open, g.sat} {
		for i, v := range p.vs { // verdicts come back in delivery order
			want := g.conns[i%len(g.conns)]
			res.Fed += want.Len()
			if v.key != keyOf(want) {
				res.problem("verdict %d is for another connection than the %d-th delivered", i, i)
				return res
			}
		}
		res.Failed -= finitePackets(p.vs)
	}
	res.Failed += res.Fed
	if len(g.open.vs) != len(g.open.due) {
		res.problem("open loop delivered %d connections, %d verdicts came back", len(g.open.due), len(g.open.vs))
	}
	if res.LateMsP99 > lateLimitMs {
		res.Invalid = fmt.Sprintf("in each of %d attempts the load generator ran late (p99 %.1f ms, worst %.1f ms, limit %d ms): it did not offer the stated rate", g.attempts, res.LateMsP99, res.LateMsMax, lateLimitMs)
	}
	return res
}

// serveUntilDone runs a server over one source until the source has ended
// and every accepted connection has been scored and emitted. scrape, if
// set, is handed the ops handler every few milliseconds while the source
// runs and once more after the drain.
func serveUntilDone(cfg serve.Config, src clap.ServeSource, done <-chan struct{}, scrape func(http.Handler)) error {
	cfg.QueueDepth = 256
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	srv.AddSource(src)
	ctx := context.Background()
	if err := srv.Start(ctx); err != nil {
		return err
	}
	if scrape == nil {
		<-done
		return srv.Shutdown(ctx)
	}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-tick.C:
			scrape(srv.Handler())
		}
	}
	err = srv.Shutdown(ctx)
	scrape(srv.Handler())
	return err
}

// endSource closes done when the wrapped source's feed is exhausted.
type endSource struct {
	clap.ServeSource
	done chan struct{}
}

func (s endSource) Stream(ctx context.Context, deliver func(*clap.Connection)) (int, error) {
	defer close(s.done)
	return s.ServeSource.Stream(ctx, deliver)
}

// liveIdleFlush is the half-open flush window of the live workload.
const liveIdleFlush = 250 * time.Millisecond

// livePass follows the in-memory pcap through the live assembler into a
// fresh server, handing every verdict to onResult.
func livePass(b clap.Backend, cal *clap.Calibration, raw []byte, idle time.Duration, traceSample int, scrape func(http.Handler), onResult func(clap.Result)) error {
	cfg := serve.Config{Backend: b, CalibrationSnapshot: cal, TraceSample: traceSample, OnResult: onResult}
	src := endSource{clap.FollowPCAP("stdin", bytes.NewReader(raw), clap.LiveConfig{IdleFlush: idle}), make(chan struct{})}
	return serveUntilDone(cfg, src, src.done, scrape)
}

// runLive is the clap-serve -stdin shape, closed loop: passes over the
// short-flow capture, held in memory. A verdict's delay counts from the
// pass start, when the whole feed was readable. Which flows an idle flush
// cuts in two depends on wall-clock timing under backpressure, so verdict
// counts and scores are not repeatable here; packets are.
func runLive(dir string, seconds float64) (*runResult, error) {
	begin := time.Now()
	tr, err := loadTruth(dir)
	if err != nil {
		return nil, err
	}
	b, cal, err := loadModel(dir)
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(dir, pcapFile))
	if err != nil {
		return nil, err
	}
	res := &runResult{LoadS: time.Since(begin).Seconds()}
	log := &emitLog{}
	err = res.timePasses(seconds, tr.Packets, log, func() error {
		return livePass(b, cal, raw, liveIdleFlush, 0, nil, log.record)
	}, func(first bool, vs []verdict) {
		if first {
			res.Digest = sortedDigest(vs)
		}
	})
	return res, err
}

// sortedDigest is the digest of a verdict multiset.
func sortedDigest(vs []verdict) string {
	s := append([]verdict(nil), vs...)
	sort.Slice(s, func(i, j int) bool {
		if c := bytes.Compare(s[i].key[:], s[j].key[:]); c != 0 {
			return c < 0
		}
		if s[i].pkts != s[j].pkts {
			return s[i].pkts < s[j].pkts
		}
		return math.Float64bits(s[i].score) < math.Float64bits(s[j].score)
	})
	return digest(s)
}

// openLoopRate is the arrival rate of a workload's open loop (0: it has
// none).
func openLoopRate(workload string) float64 {
	switch workload {
	case "serve-clap-low":
		return serveLowConnsPerS
	case "serve-clap-high":
		return serveHighConnsPerS
	}
	return 0
}

// runOne is the child process: it runs one workload's timed part over the
// inputs in dir and prints a runResult.
func runOne(dir, workload string, seconds float64, out io.Writer) error {
	var res *runResult
	var err error
	switch workload {
	case "file-clap", "file-cascade":
		res, err = runFile(dir, seconds)
	case "serve-clap-low", "serve-clap-high":
		res, err = runServe(dir, openLoopRate(workload), seconds)
	case "live-short":
		res, err = runLive(dir, seconds)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return err
	}
	res.PeakRSSMB = peakRSSMB()
	return json.NewEncoder(out).Encode(res)
}
