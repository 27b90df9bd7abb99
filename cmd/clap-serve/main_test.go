package main

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"clap"
	"clap/internal/serve"
	"clap/internal/tenant"
)

// sourceSpecs is TestSourceFor's table; FuzzTenantFlags seeds from it.
var sourceSpecs = []struct {
	spec    string
	name    string // expected Name() of the built source; "" expects an error
	errPart string
}{
	{spec: "afpacket:eth0", name: "afpacket:eth0"},
	{spec: "afpacket:eth0:42", name: "afpacket:eth0"},
	{spec: "afpacket:", errPart: "needs an interface"},
	{spec: "afpacket:eth0:notanum", errPart: "bad fanout id"},
	{spec: "afpacket:eth0:70000", errPart: "bad fanout id"},
	{spec: "afpacket:eth0:-1", errPart: "bad fanout id"},
	{spec: "tail:/tmp/x.pcap", name: "tail:/tmp/x.pcap"},
	{spec: "stdin", name: "stdin"},
	{spec: "stdin:x", errPart: "takes no argument"},
	{spec: "replay:/tmp/x.pcap", name: "replay:/tmp/x.pcap"},
	{spec: "soak:5", name: "soak"},
	{spec: "soak:0:50:0.3", name: "soak"},
	{spec: "soak:3:0:1", name: "soak"},
	{spec: "soak:-1", errPart: "bad connection count"},
	{spec: "soak:3:-5", errPart: "bad rate"},
	{spec: "soak:3:NaN", errPart: "bad rate"},
	{spec: "soak:3:+Inf", errPart: "bad rate"},
	{spec: "soak:3:0:7", errPart: "bad attack fraction"},
	{spec: "soak:3:0:-0.1", errPart: "bad attack fraction"},
	{spec: "soak:3:0:NaN", errPart: "bad attack fraction"},
	{spec: "nonsense:x", errPart: "unknown source kind"},
}

// TestSourceFor pins the -source/-tenant-source spec grammar, including
// the afpacket form and the soak bounds, and that stdin backs at most one
// source. Building an afpacket or stdin source performs no I/O — the
// socket opens and stdin is read at Stream time — so the parse is
// testable anywhere.
func TestSourceFor(t *testing.T) {
	live := clap.LiveConfig{Poll: 10 * time.Millisecond}
	for _, tc := range sourceSpecs {
		src, err := sourceFor(tc.spec, live, 1)
		if tc.name == "" {
			if err == nil || !strings.Contains(err.Error(), tc.errPart) {
				t.Errorf("sourceFor(%q) error = %v, want containing %q", tc.spec, err, tc.errPart)
			}
			continue
		}
		if err != nil {
			t.Errorf("sourceFor(%q): %v", tc.spec, err)
			continue
		}
		if !strings.HasPrefix(src.Name(), tc.name) {
			t.Errorf("sourceFor(%q).Name() = %q, want prefix %q", tc.spec, src.Name(), tc.name)
		}
	}

	// One process has one stdin: -source and -tenant-source share one
	// stdinOnce, which refuses the second spec naming it.
	var stdin stdinOnce
	for _, spec := range []string{"tail:/tmp/x.pcap", "stdin", "soak:5"} {
		if err := stdin.check(spec); err != nil {
			t.Fatalf("check(%q) before any repeat: %v", spec, err)
		}
	}
	if err := stdin.check("stdin"); err == nil || !strings.Contains(err.Error(), "stdin") {
		t.Fatalf("second stdin source: err = %v, want it refused", err)
	}
}

// FuzzTenantFlags fuzzes the -tenant, -tenant-quota and -tenant-source
// grammar. None of the parsers may panic; an accepted quota is valid; an
// accepted tenant flag has a name and a model, and formatting it back as
// name=model:threshold parses to the same value.
func FuzzTenantFlags(f *testing.F) {
	for _, tc := range sourceSpecs {
		f.Add(tc.spec)
	}
	for _, seed := range []string{
		"edge=edge.model:0.08", "b=b1.model:0.2", "edge=edge.model",
		"edge=64:200:50", "b=64:100:50", "default=8",
		"edge=tail:edge.pcap", "b=soak:0:40:0.3", "soak:0:40:0.3",
		"a=m:NaN", "a=c:/models/x.bin", "=x", "a=",
	} {
		f.Add(seed)
	}
	live := clap.LiveConfig{Poll: 10 * time.Millisecond}
	f.Fuzz(func(t *testing.T, v string) {
		if tf, err := parseTenantFlag(v); err == nil {
			if tf.name == "" || tf.model == "" {
				t.Fatalf("parseTenantFlag(%q) accepted %+v without a name or model", v, tf)
			}
			again := tf.name + "=" + tf.model + ":" + strconv.FormatFloat(tf.threshold, 'g', -1, 64)
			back, err := parseTenantFlag(again)
			if err != nil || back.name != tf.name || back.model != tf.model ||
				math.Float64bits(back.threshold) != math.Float64bits(tf.threshold) {
				t.Fatalf("parseTenantFlag(%q) = %+v, but %q parses to %+v (%v)", v, tf, again, back, err)
			}
		}
		if _, q, err := parseQuotaFlag(v); err == nil {
			if err := q.Validate(); err != nil {
				t.Fatalf("parseQuotaFlag(%q) accepted an invalid quota %+v: %v", v, q, err)
			}
		}
		sourceFor(v, live, 1)
		if _, spec, ok := strings.Cut(v, "="); ok {
			sourceFor(spec, live, 1)
		}
	})
}

// TestCheckQuotas: a -tenant-quota naming an undeclared tenant (a typo
// such as edeg for edge) is rejected rather than silently ignored.
func TestCheckQuotas(t *testing.T) {
	edge := []tenantFlag{{name: "edge", model: "edge.model"}}
	q := tenant.Quota{MaxInFlight: 64, Rate: 100}
	if err := checkQuotas(map[string]tenant.Quota{"default": q, "edge": q}, edge); err != nil {
		t.Fatalf("declared tenants rejected: %v", err)
	}
	err := checkQuotas(map[string]tenant.Quota{"edeg": q}, edge)
	if err == nil || !strings.Contains(err.Error(), `"edeg"`) {
		t.Fatalf("quota for undeclared tenant edeg: err = %v, want it named", err)
	}
}

// alertFixture is a fixed result sequence — two flagged connections (one
// an attack), one unflagged, and a repeat of the first inside the dedup
// window — plus one drift status.
func alertFixture() ([]clap.Result, serve.DriftStatus) {
	conns := clap.GenerateBenign(3, 1)
	conns[1].AttackName = "GFW: Injected RST Bad TCP-Checksum/MD5-Option"
	return []clap.Result{
			{Conn: conns[0], Score: 0.5, PeakWindow: 2, Flagged: true},
			{Conn: conns[1], Score: 0.75, PeakWindow: 0, Flagged: true},
			{Conn: conns[2], Score: 0.01, PeakWindow: 1},
			{Conn: conns[0], Score: 0.5, PeakWindow: 2, Flagged: true},
		}, serve.DriftStatus{
			Reason: "operating FPR 0.2000 outside target 0.0500 x/÷ 3", Drift: 0.625,
			OperatingFPR: 0.2, TargetFPR: 0.05, LiveCount: 64, Alert: true,
		}
}

// TestAlertHooks pins the alert log's routing. With no named tenants the
// bytes are the single-tenant log, ending in the dedup sink's summary of
// the repeat it suppressed; a named tenant's lines carry its tag; and
// each tenant dedups on its own, so one 5-tuple flagged on two tenants is
// logged twice.
func TestAlertHooks(t *testing.T) {
	results, drift := alertFixture()
	const window, rate = 30 * time.Second, 20

	var single bytes.Buffer
	onResult, onDrift, finish := alertHooks(&single, nil, window, rate)
	for _, r := range results {
		onResult(r)
	}
	onDrift("", drift)
	finish()
	const want = "ALERT 210.129.134.174:55279 > 23.72.164.157:80     score=0.50000 peak-window=2\n" +
		"ALERT 23.31.121.198:47411 > 104.137.43.48:443      score=0.75000 peak-window=0  (attack: GFW: Injected RST Bad TCP-Checksum/MD5-Option)\n" +
		"DRIFT ALERT operating FPR 0.2000 outside target 0.0500 x/÷ 3 (drift=0.6250 operating-fpr=0.2000 target-fpr=0.0500 over 64 scores)\n" +
		"(1 alerts suppressed: dedup window 30s, rate cap 20/s)\n"
	if got := single.String(); got != want {
		t.Fatalf("single-tenant alert log:\n%q\nwant:\n%q", got, want)
	}

	var multi bytes.Buffer
	onResult, onDrift, finish = alertHooks(&multi, []string{"a", "b"}, window, rate)
	for _, name := range []string{"a", "b"} {
		c := results[0].Conn.Clone()
		c.Tenant = name
		onResult(clap.Result{Conn: c, Score: 0.5, PeakWindow: 2, Flagged: true})
	}
	onDrift("b", drift)
	finish() // nothing was suppressed: no summary lines
	lines := strings.Split(strings.TrimSuffix(multi.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("two tenants flagging one 5-tuple plus a drift alert wrote %d lines, want 3:\n%s", len(lines), multi.String())
	}
	for i, prefix := range []string{"tenant=a ALERT ", "tenant=b ALERT ", "tenant=b DRIFT ALERT "} {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Fatalf("line %d = %q, want prefix %q", i, lines[i], prefix)
		}
	}
}
