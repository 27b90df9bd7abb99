// Command clap-serve is the always-on online detector: it ingests
// connections continuously from live sources, scores them through any
// registered backend, and exposes an ops API for health, Prometheus
// metrics, flagged connections, live threshold adjustment, drift
// monitoring, and hot model reload with optional atomic recalibration
// (POST /v1/reload, or SIGHUP). SIGINT/SIGTERM drain the queue and
// scoring stream before exiting, so every accepted connection is scored.
//
// Usage:
//
//	clap-serve -model clap.model -source tail:/var/run/capture.pcap
//	clap-serve -model clap.model -source stdin < fifo.pcap
//	clap-serve -model clap.model -source soak:0:50:0.2
//	clap-serve -model clap.model -source replay:suspect.pcap -calibrate benign.pcap -fpr 0.01
//	clap-serve -model clap.model -source afpacket:eth0:7
//
// -source is repeatable. Its forms are afpacket:IFACE[:fanout-id],
// tail:PATH, stdin (at most once per process), replay:PATH and
// soak:N[:rate[:attack]] (N 0: unbounded; rate 0: as fast as accepted;
// -soak-seed seeds every soak source).
//
// Multi-tenant serving (DESIGN.md §11): repeatable -tenant flags add
// named tenants, each with its own model, threshold, calibration and
// fair-share quota, all sharing one batched scoring engine. -model stays
// the default tenant, byte-for-byte compatible with single-tenant runs:
//
//	clap-serve -model clap.model -source tail:a.pcap \
//	        -tenant edge=edge.model:0.08 -tenant-source edge=tail:edge.pcap \
//	        -tenant-quota edge=64:200:50
//
// -calibrate derives the operating point (threshold plus benign-score
// reference) at -fpr before serving, as clap-detect does, and persists it
// to <model>.calib; a later start without -calibrate resumes from it.
// Reloads with no "fpr" recalibrate at the installed snapshot's target.
//
// Ops API (default 127.0.0.1:8080; see DESIGN.md §7 and §9):
//
//	curl localhost:8080/healthz
//	curl localhost:8080/metrics
//	curl localhost:8080/v1/tenants
//	curl localhost:8080/v1/flagged?n=10
//	curl localhost:8080/v1/drift
//	curl "localhost:8080/v1/summary?tenant=edge"
//	curl -X PUT -d '{"threshold":0.08}' localhost:8080/v1/threshold
//	curl -X POST -d '{"path":"new.model"}' localhost:8080/v1/reload
//	curl -X POST -d '{"path":"new.model","calibration":"benign.pcap","fpr":0.01}' \
//	        localhost:8080/v1/reload
//	curl -X POST -d '{"calibration":"live"}' localhost:8080/v1/reload
//
// With -trace-sample N, every verdict carries a provenance record and
// flagged connections (plus every Nth delivery per tenant) retain their
// full per-window error series (DESIGN.md §12):
//
//	curl "localhost:8080/v1/trace?n=10&tenant=edge"
//	curl "localhost:8080/v1/explain?key=<connection key>"
//
// -debug-addr serves net/http/pprof on its own listener, separate from
// the ops API, so profiling stays off the scraped port.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"clap"
	"clap/internal/serve"
	"clap/internal/tenant"
)

// tenantFlag is one -tenant declaration: name=model.bin[:threshold].
type tenantFlag struct {
	name      string
	model     string
	threshold float64
}

// tenantSourceFlag is one -tenant-source declaration, name=kind:arg, or
// a -source one (name ""), with the source it builds.
type tenantSourceFlag struct {
	name string
	spec string
	src  clap.ServeSource
}

// parseTenantFlag splits name=model.bin[:threshold]. The threshold suffix
// is recognized only when it parses as a number, so model paths containing
// colons stay usable.
func parseTenantFlag(v string) (tenantFlag, error) {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" || rest == "" {
		return tenantFlag{}, fmt.Errorf("-tenant %q: want name=model.bin[:threshold]", v)
	}
	tf := tenantFlag{name: name, model: rest}
	if i := strings.LastIndex(rest, ":"); i > 0 {
		if th, err := strconv.ParseFloat(rest[i+1:], 64); err == nil {
			tf.model, tf.threshold = rest[:i], th
		}
	}
	return tf, nil
}

// parseQuotaFlag splits name=maxinflight[:rate[:burst]].
func parseQuotaFlag(v string) (string, tenant.Quota, error) {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" || rest == "" {
		return "", tenant.Quota{}, fmt.Errorf("-tenant-quota %q: want name=maxinflight[:rate[:burst]]", v)
	}
	parts := strings.Split(rest, ":")
	if len(parts) > 3 {
		return "", tenant.Quota{}, fmt.Errorf("-tenant-quota %q: want name=maxinflight[:rate[:burst]]", v)
	}
	var q tenant.Quota
	var err error
	if q.MaxInFlight, err = strconv.Atoi(parts[0]); err != nil {
		return "", tenant.Quota{}, fmt.Errorf("-tenant-quota %q: bad max-in-flight %q", v, parts[0])
	}
	if len(parts) > 1 {
		if q.Rate, err = strconv.ParseFloat(parts[1], 64); err != nil {
			return "", tenant.Quota{}, fmt.Errorf("-tenant-quota %q: bad rate %q", v, parts[1])
		}
	}
	if len(parts) > 2 {
		if q.Burst, err = strconv.Atoi(parts[2]); err != nil {
			return "", tenant.Quota{}, fmt.Errorf("-tenant-quota %q: bad burst %q", v, parts[2])
		}
	}
	return name, q, q.Validate()
}

// sourceFor builds the ingest source a -source or -tenant-source spec
// names.
func sourceFor(spec string, live clap.LiveConfig, soakSeed int64) (clap.ServeSource, error) {
	kind, arg, hasArg := strings.Cut(spec, ":")
	switch kind {
	case "afpacket":
		iface, rest, _ := strings.Cut(arg, ":")
		if iface == "" {
			return nil, fmt.Errorf("afpacket source needs an interface (afpacket:IFACE[:fanout-id])")
		}
		fanoutID := -1
		if rest != "" {
			id, err := strconv.Atoi(rest)
			if err != nil || id < 0 || id > 0xffff {
				return nil, fmt.Errorf("afpacket source: bad fanout id %q (want 0..65535)", rest)
			}
			fanoutID = id
		}
		return clap.AFPacket(iface, fanoutID, live), nil
	case "tail":
		if arg == "" {
			return nil, fmt.Errorf("tail source needs a path (tail:PATH)")
		}
		return clap.TailPCAP(arg, live), nil
	case "stdin":
		if hasArg {
			return nil, fmt.Errorf("stdin source takes no argument (stdin)")
		}
		return clap.FollowPCAP("stdin", os.Stdin, live), nil
	case "replay":
		if arg == "" {
			return nil, fmt.Errorf("replay source needs a path (replay:PATH)")
		}
		return clap.Replay("replay:"+arg, clap.PCAPFile(arg)), nil
	case "soak":
		sc := clap.SoakConfig{Seed: soakSeed}
		parts := strings.Split(arg, ":")
		if len(parts) > 3 || parts[0] == "" {
			return nil, fmt.Errorf("soak source: want soak:N[:rate[:attack]]")
		}
		var err error
		if sc.Connections, err = strconv.Atoi(parts[0]); err != nil || sc.Connections < 0 {
			return nil, fmt.Errorf("soak source: bad connection count %q (want 0 for unbounded, or more)", parts[0])
		}
		if len(parts) > 1 {
			if sc.Rate, err = strconv.ParseFloat(parts[1], 64); err != nil || sc.Rate < 0 || math.IsNaN(sc.Rate) || math.IsInf(sc.Rate, 1) {
				return nil, fmt.Errorf("soak source: bad rate %q (want a finite rate ≥ 0; 0 is as fast as accepted)", parts[1])
			}
		}
		if len(parts) > 2 {
			if sc.AttackFraction, err = strconv.ParseFloat(parts[2], 64); err != nil || !(sc.AttackFraction >= 0 && sc.AttackFraction <= 1) { // NaN fails both
				return nil, fmt.Errorf("soak source: bad attack fraction %q (want 0..1)", parts[2])
			}
		}
		return clap.Soak(sc), nil
	}
	return nil, fmt.Errorf("unknown source kind %q (want afpacket:IFACE[:fanout-id], tail:PATH, stdin, replay:PATH or soak:N[:rate[:attack]])", kind)
}

// stdinOnce admits at most one source spec naming stdin: a process has
// one standard input, and two readers would split its records between
// them.
type stdinOnce bool

func (seen *stdinOnce) check(spec string) error {
	if kind, _, _ := strings.Cut(spec, ":"); kind != "stdin" {
		return nil
	}
	if *seen {
		return fmt.Errorf("stdin is already a source (name it at most once)")
	}
	*seen = true
	return nil
}

// checkQuotas rejects a -tenant-quota naming a tenant no -tenant flag
// declares ("default" aside), the way an unknown -tenant-source name is
// rejected: a typo would otherwise leave the intended tenant unlimited.
func checkQuotas(quotas map[string]tenant.Quota, tenants []tenantFlag) error {
	declared := map[string]bool{serve.DefaultTenant: true}
	for _, tf := range tenants {
		declared[tf.name] = true
	}
	for name := range quotas {
		if !declared[name] {
			return fmt.Errorf("-tenant-quota %s: unknown tenant %q (declare it with -tenant)", name, name)
		}
	}
	return nil
}

// prefixWriter prepends a tenant tag to each alert line. The alert log
// and the drift formatter emit one line per Write, so prefixing per call
// is line-accurate.
type prefixWriter struct {
	w      io.Writer
	prefix string
}

func (p prefixWriter) Write(b []byte) (int, error) {
	if _, err := io.WriteString(p.w, p.prefix); err != nil {
		return 0, err
	}
	return p.w.Write(b)
}

// alertHooks builds the serve.Config hooks that write flagged results
// and drift alerts into the alert log out. Each tenant — the default one
// plus the named tenants — gets its own dedup sink, so one tenant's
// duplicate suppression (keyed by 5-tuple) never masks another's
// alerts; the default tenant's lines are unprefixed, a named tenant's
// start with "tenant=NAME ". Both hooks run on the stream's single emit
// goroutine, so the sinks need no locking and drift lines interleave
// line-atomically with alert lines. finish writes each sink's
// suppressed-alert summary; call it once the stream has drained.
func alertHooks(out io.Writer, tenants []string, window time.Duration, rate int) (onResult func(clap.Result), onDrift func(string, serve.DriftStatus), finish func()) {
	// Keyed by connection tag: "" is the default tenant.
	writers := map[string]io.Writer{"": out}
	for _, name := range tenants {
		writers[name] = prefixWriter{w: out, prefix: "tenant=" + name + " "}
	}
	sinks := make(map[string]clap.Sink, len(writers))
	for tag, w := range writers {
		sinks[tag] = clap.NewDedupAlertLog(w, window, rate)
	}
	onResult = func(r clap.Result) {
		if sink := sinks[r.Conn.Tenant]; sink != nil {
			if err := sink.Emit(r); err != nil {
				log.Printf("alert sink: %v", err)
			}
		}
	}
	onDrift = func(tag string, st serve.DriftStatus) {
		if w := writers[tag]; w != nil {
			fmt.Fprintf(w, "DRIFT ALERT %s (drift=%.4f operating-fpr=%.4f target-fpr=%.4f over %d scores)\n",
				st.Reason, st.Drift, st.OperatingFPR, st.TargetFPR, st.LiveCount)
		}
	}
	finish = func() {
		// The default tenant first, then named tenants in flag order.
		for _, tag := range append([]string{""}, tenants...) {
			if err := sinks[tag].Finish(nil); err != nil {
				log.Printf("alert sink: %v", err)
			}
		}
	}
	return onResult, onDrift, finish
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("clap-serve: ")
	var (
		model       = flag.String("model", "", "trained model path (required; also the default -reload source)")
		addr        = flag.String("addr", "127.0.0.1:8080", "ops API listen address")
		threshold   = flag.Float64("threshold", 0, "fixed operating threshold (0: score-only; not with -calibrate)")
		calibrate   = flag.String("calibrate", "", "benign pcap to calibrate the threshold from")
		fpr         = flag.Float64("fpr", 0.01, "target false-positive rate for -calibrate (recalibrating reloads with no \"fpr\" reuse it)")
		escalateFPR = flag.Float64("escalate-fpr", 0,
			"cascade models: override the persisted escalate-FPR (needs -calibrate)")
		top     = flag.Int("top", 5, "Top-N windows to localize per flagged connection (negative: disable localization)")
		workers = flag.Int("workers", 0, "scoring workers (0: all cores)")
		queue   = flag.Int("queue", 256, "ingest queue depth")
		shed    = flag.Bool("shed", false, "drop connections at a full queue instead of backpressuring sources")

		poll     = flag.Duration("poll", 250*time.Millisecond, "tail poll interval")
		idle     = flag.Duration("idle-flush", 5*time.Second, "emit live connections idle this long (0: 5s; negative: never)")
		budget   = flag.Int("max-packets", 512, "cut live connections at this packet budget (-1: unbounded)")
		soakSeed = flag.Int64("soak-seed", 1, "determinism seed for every soak:N[:rate[:attack]] source")

		calibFile      = flag.String("calib-file", "", "calibration snapshot path (default <model>.calib; \"off\" disables persistence)")
		driftWindow    = flag.Int("drift-window", 256, "scores per rolling drift window (0: disable drift monitoring)")
		driftRing      = flag.Int("drift-ring", 4, "rolling windows retained for drift statistics")
		driftMaxShift  = flag.Float64("drift-max-shift", 0.5, "relative quantile shift that trips the drift alert (negative: rule off)")
		driftFPRFactor = flag.Float64("drift-fpr-factor", 3, "operating-FPR deviation factor that trips the drift alert (negative: rule off)")

		traceSample = flag.Int("trace-sample", 0,
			"arm verdict provenance and deep-trace retention: keep every Nth connection's full error series per tenant (flagged connections always; 0: tracing off)")
		traceRing = flag.Int("trace-ring", 256, "decision records and deep traces retained per tenant")
		debugAddr = flag.String("debug-addr", "",
			"serve net/http/pprof on this address (own listener, kept off the ops API; empty: disabled)")

		alerts      = flag.String("alerts", "", "write an alert log to this path (\"-\": stdout)")
		alertWindow = flag.Duration("alert-window", 30*time.Second, "suppress duplicate alerts per connection key within this window")
		alertRate   = flag.Int("alert-rate", 20, "cap alert lines per second (0: uncapped)")

		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to drain on shutdown")
	)
	var tenantFlags []tenantFlag
	flag.Func("tenant", "serve an extra tenant over the shared engine: name=model.bin[:threshold] (repeatable; -model stays the default tenant)", func(v string) error {
		tf, err := parseTenantFlag(v)
		if err != nil {
			return err
		}
		tenantFlags = append(tenantFlags, tf)
		return nil
	})
	var stdin stdinOnce
	var sourceSpecs []string
	flag.Func("source", "ingest source for the default tenant: afpacket:IFACE[:fanout-id] | tail:PATH | stdin | replay:PATH | soak:N[:rate[:attack]] (repeatable)", func(v string) error {
		if v == "" {
			return fmt.Errorf("-source: empty spec")
		}
		sourceSpecs = append(sourceSpecs, v)
		return stdin.check(v)
	})
	var tenantSources []tenantSourceFlag
	flag.Func("tenant-source", "ingest source for a tenant: name=afpacket:IFACE[:fanout-id] | name=tail:PATH | name=stdin | name=replay:PATH | name=soak:N[:rate[:attack]] (repeatable)", func(v string) error {
		name, spec, ok := strings.Cut(v, "=")
		if !ok || name == "" || spec == "" {
			return fmt.Errorf("-tenant-source %q: want name=kind:arg", v)
		}
		tenantSources = append(tenantSources, tenantSourceFlag{name: name, spec: spec})
		return stdin.check(spec)
	})
	tenantQuotas := map[string]tenant.Quota{}
	flag.Func("tenant-quota", "fair-share quota for a tenant: name=maxinflight[:rate[:burst]] (repeatable; name may be \"default\")", func(v string) error {
		name, q, err := parseQuotaFlag(v)
		if err != nil {
			return err
		}
		tenantQuotas[name] = q
		return nil
	})
	flag.Parse()
	if *model == "" {
		log.Fatal("need -model")
	}
	if err := checkQuotas(tenantQuotas, tenantFlags); err != nil {
		log.Fatal(err)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["fpr"] && *calibrate == "" {
		log.Fatalf("-fpr %v: the target of -calibrate, which is not set", *fpr)
	}
	if set["threshold"] && *calibrate != "" {
		log.Fatalf("-threshold %v: -calibrate sets the threshold; give one of the two", *threshold)
	}
	// A negative value here would be read as another setting's "off".
	for name, bad := range map[string]bool{"drift-window": *driftWindow < 0, "alert-rate": *alertRate < 0, "poll": *poll < 0} {
		if bad {
			log.Fatalf("-%s %v: must be >= 0", name, flag.Lookup(name).Value)
		}
	}

	b, err := clap.LoadBackendFile(*model)
	if err != nil {
		log.Fatalf("loading model: %v", err)
	}
	if set["escalate-fpr"] {
		cb, ok := b.(*clap.CascadeBackend)
		if !ok {
			log.Fatalf("-escalate-fpr applies to cascade models; %s is %q", *model, b.Tag())
		}
		if err := cb.SetEscalateFPR(*escalateFPR); err != nil {
			log.Fatal(err)
		}
		if *calibrate == "" { // only a calibration moves the escalation threshold
			log.Fatalf("-escalate-fpr %v: takes effect at -calibrate, which is not set", *escalateFPR)
		}
	}
	log.Printf("loaded %s", b.Describe())

	cfg := serve.Config{
		Backend:        b,
		ModelPath:      *model,
		Addr:           *addr,
		Workers:        *workers,
		Threshold:      *threshold,
		TopN:           *top,
		QueueDepth:     *queue,
		DropWhenFull:   *shed,
		DriftWindows:   *driftRing,
		DriftMaxShift:  *driftMaxShift,
		DriftFPRFactor: *driftFPRFactor,
		TraceSample:    *traceSample,
		TraceRing:      *traceRing,
		Logf:           log.Printf,
	}
	// Every source spec is checked before -calibrate scores anything; the
	// sources join their tenants once the server exists.
	live := clap.LiveConfig{MaxPackets: *budget, Poll: *poll, IdleFlush: *idle}
	var sources []tenantSourceFlag
	for _, spec := range sourceSpecs {
		src, err := sourceFor(spec, live, *soakSeed)
		if err != nil {
			log.Fatalf("-source %s: %v", spec, err)
		}
		sources = append(sources, tenantSourceFlag{spec: spec, src: src})
	}
	for _, ts := range tenantSources {
		if ts.src, err = sourceFor(ts.spec, live, *soakSeed); err != nil {
			log.Fatalf("-tenant-source %s=%s: %v", ts.name, ts.spec, err)
		}
		sources = append(sources, ts)
	}

	// -calibrate derives the operating point before serving, as
	// clap-detect does; serve installs the finished snapshot.
	if *calibrate != "" {
		opts := []clap.PipelineOption{clap.WithBackend(b)}
		if *workers > 0 {
			opts = append(opts, clap.WithWorkers(*workers))
		}
		p, err := clap.NewPipeline(opts...)
		if err != nil {
			log.Fatal(err)
		}
		if cfg.CalibrationSnapshot, err = p.Calibrate(*fpr, clap.PCAPFile(*calibrate)); err != nil {
			log.Fatal(err)
		}
		log.Printf("calibrated threshold %.6f at FPR %g over %d connections", cfg.CalibrationSnapshot.Threshold, *fpr, cfg.CalibrationSnapshot.Conns)
	}
	// The drift monitor's rolling-window size; 0 on the flag means "off"
	// (the Config encodes that as a negative value).
	cfg.DriftWindow = *driftWindow
	if *driftWindow == 0 {
		cfg.DriftWindow = -1
	}
	// Calibration snapshots live alongside the model file by default, so
	// a calibrated start persists its reference distribution and a
	// restart without -calibrate resumes from it.
	switch *calibFile {
	case "off":
	case "":
		cfg.CalibrationFile = *model + ".calib"
	default:
		cfg.CalibrationFile = *calibFile
	}
	cfg.Quota = tenantQuotas[serve.DefaultTenant]

	// Named tenants: each owns its model, threshold, calibration snapshot
	// and quota, while sharing the batched engine and ingest queue with
	// the default tenant. Named tenants persist calibration alongside
	// their own model file (-calib-file off disables that for all).
	for _, tf := range tenantFlags {
		tb, err := clap.LoadBackendFile(tf.model)
		if err != nil {
			log.Fatalf("tenant %s: loading model: %v", tf.name, err)
		}
		log.Printf("tenant %s: loaded %s", tf.name, tb.Describe())
		tc := serve.TenantConfig{
			Name:      tf.name,
			Backend:   tb,
			ModelPath: tf.model,
			Threshold: tf.threshold,
			Quota:     tenantQuotas[tf.name],
		}
		if *calibFile != "off" {
			tc.CalibrationFile = tf.model + ".calib"
		}
		cfg.Tenants = append(cfg.Tenants, tc)
	}

	// Alert sink: flagged results flow through the dedup+rate-limited log.
	finishAlerts := func() {}
	if *alerts != "" {
		out := os.Stdout
		if *alerts != "-" {
			f, err := os.Create(*alerts)
			if err != nil {
				log.Fatalf("alert log: %v", err)
			}
			defer f.Close()
			out = f
		}
		names := make([]string, len(tenantFlags))
		for i, tf := range tenantFlags {
			names[i] = tf.name
		}
		cfg.OnResult, cfg.OnDriftAlert, finishAlerts = alertHooks(out, names, *alertWindow, *alertRate)
	}

	srv, err := serve.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	for _, ts := range sources {
		if err := srv.AddTenantSource(ts.name, ts.src); err != nil {
			log.Fatal(err)
		}
	}
	if len(sources) == 0 {
		log.Fatal("no ingest source: need -source or -tenant-source")
	}

	if err := srv.Start(context.Background()); err != nil {
		log.Fatal(err)
	}

	// The pprof surface gets its own mux and listener, never the ops API's:
	// profiling endpoints stay bindable to a loopback/debug interface while
	// the ops port is scraped by monitoring, and an unset -debug-addr
	// exposes no profiling at all (importing net/http/pprof registers on
	// DefaultServeMux, which neither listener serves).
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	// SIGHUP reloads the model in place; SIGINT/SIGTERM drain and exit.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	stop := make(chan os.Signal, 2)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	for {
		select {
		case <-hup:
			if res, err := srv.Reload("", serve.ReloadRequest{}); err != nil {
				log.Printf("SIGHUP reload failed: %v", err)
			} else {
				log.Printf("SIGHUP reload ok: now serving %s (generation %d)", res.New.Tag, res.New.Generation)
			}
		case sig := <-stop:
			log.Printf("%s: draining...", sig)
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			err := srv.Shutdown(ctx)
			cancel()
			if err != nil {
				log.Fatalf("shutdown: %v", err)
			}
			finishAlerts()
			return
		}
	}
}
