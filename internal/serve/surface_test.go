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
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"clap"
	"clap/internal/nn"
	"clap/internal/tenant"
)

// TestServeSurfaceGolden pins the single-tenant ops surface against
// testdata/surface.golden: the ordered JSON key paths of /healthz and the
// /v1 endpoints (threshold GET and PUT, reload), the /metrics HELP/TYPE
// lines and series with their label sets, and every Logf line — plus the
// /metrics family list of a two-tenant daemon. Numbers, timestamps, paths
// and build identity are masked, so the golden moves only when the shape
// of the surface does: a renamed or vanished JSON key, metric family,
// label or log line.
func TestServeSurfaceGolden(t *testing.T) {
	clapModel, _ := fixture(t)
	mask := surfaceMasker(filepath.Dir(clapModel))
	var out strings.Builder

	// Single tenant: a fixed model and threshold, 10 benign connections,
	// then one threshold PUT and one reload.
	var logs logLines
	src := &chanSource{name: "golden", ch: make(chan *clap.Connection, 16)}
	srv, err := New(Config{
		Backend:     loadModel(t, clapModel),
		ModelPath:   clapModel,
		Threshold:   0.0001,
		DriftWindow: 8,
		Logf:        logs.logf,
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
	logs.waitFor(t, "source golden finished")
	ts := httptest.NewServer(srv.Handler())
	for _, rq := range []struct{ method, path, body string }{
		{http.MethodGet, "/healthz", ""},
		{http.MethodGet, "/v1/flagged", ""},
		{http.MethodGet, "/v1/summary", ""},
		{http.MethodGet, "/v1/drift", ""},
		{http.MethodGet, "/v1/threshold", ""},
		{http.MethodPut, "/v1/threshold", `{"threshold": 0.0001}`},
		{http.MethodPost, "/v1/reload", ""},
		{http.MethodGet, "/metrics", ""},
	} {
		status, body := doRequest(t, rq.method, ts.URL+rq.path, rq.body)
		fmt.Fprintf(&out, "== single-tenant %s %s %d\n", rq.method, rq.path, status)
		if rq.path == "/metrics" {
			writeLines(&out, metricsShape(body, mask))
		} else {
			writeLines(&out, jsonShape(t, body, mask))
		}
	}
	ts.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "== single-tenant log\n")
	for _, l := range logs.snapshot() {
		fmt.Fprintln(&out, mask(l))
	}

	// Two tenants: the /metrics family list only.
	srv2, srcA, srcB := twoTenantServer(t, Config{Threshold: 0.0001, DriftWindow: 8}, tenant.Quota{}, tenant.Quota{})
	if err := srv2.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		src *chanSource
		n   int
	}{{srcA, 6}, {srcB, 4}} {
		for _, c := range clap.GenerateBenign(tc.n, 13) {
			tc.src.ch <- c
		}
		close(tc.src.ch)
	}
	waitScored(t, srv2, 10)
	ts2 := httptest.NewServer(srv2.Handler())
	status, body := doRequest(t, http.MethodGet, ts2.URL+"/metrics", "")
	ts2.Close()
	if err := srv2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "== two-tenant GET /metrics %d\n", status)
	writeLines(&out, metricsShape(body, mask))

	want, err := os.ReadFile(filepath.Join("testdata", "surface.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("surface differs from testdata/surface.golden at line %d:\n got: %q\nwant: %q\nfull surface:\n%s", i+1, g, w, got)
			}
		}
	}
}

// logLines collects Logf output; Logf is called from several goroutines.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logLines) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

// waitFor polls until a line starting with prefix has been logged, so
// the golden's log order does not depend on goroutine scheduling.
func (l *logLines) waitFor(t *testing.T, prefix string) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		for _, line := range l.snapshot() {
			if strings.HasPrefix(line, prefix) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no log line starting %q in %q", prefix, l.snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func doRequest(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func writeLines(w io.Writer, lines []string) {
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}

var (
	timestampRe = regexp.MustCompile(`\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d+)?(Z|[+-]\d\d:\d\d)`)
	digitsRe    = regexp.MustCompile(`[0-9]+`)
	promLabelKV = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

// surfaceMasker returns the golden's masking of free text: the fixture
// directory, the build identity, timestamps, and every run of digits.
func surfaceMasker(dir string) func(string) string {
	return func(s string) string {
		if s == nn.Kernel() {
			return "<kernel>"
		}
		s = strings.ReplaceAll(s, dir, "<dir>")
		s = strings.ReplaceAll(s, runtime.Version(), "<go>")
		s = timestampRe.ReplaceAllString(s, "<time>")
		return digitsRe.ReplaceAllString(s, "N")
	}
}

// jsonShape flattens a JSON body into "path = value" lines in document
// order, keeping each line's first occurrence: array elements share the
// path "[]", numbers read <num>, strings are masked, and every container
// adds a line of its own so an empty one still shows.
func jsonShape(t *testing.T, body string, mask func(string) string) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(body))
	dec.UseNumber()
	var lines []string
	seen := map[string]bool{}
	emit := func(l string) {
		if !seen[l] {
			seen[l] = true
			lines = append(lines, l)
		}
	}
	token := func() json.Token {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("decoding %q: %v", body, err)
		}
		return tok
	}
	var walk func(path string)
	walk = func(path string) {
		switch v := token().(type) {
		case json.Delim:
			if v == '{' {
				emit(path + " = {}")
				for dec.More() {
					walk(path + "." + token().(string))
				}
			} else {
				emit(path + " = []")
				for dec.More() {
					walk(path + "[]")
				}
			}
			token() // the closing delimiter
		case json.Number:
			emit(path + " = <num>")
		case string:
			emit(fmt.Sprintf("%s = %q", path, mask(v)))
		default:
			emit(fmt.Sprintf("%s = %v", path, v))
		}
	}
	walk("$")
	return lines
}

// metricsShape reduces a /metrics page to its HELP/TYPE lines and its
// series names with their label sets, first occurrence only: sample
// values are dropped, le bounds read *, other label values are masked.
func metricsShape(body string, mask func(string) string) []string {
	var lines []string
	seen := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "#") {
			series := line[:strings.LastIndexByte(line, ' ')]
			series = promLabelKV.ReplaceAllStringFunc(series, func(kv string) string {
				m := promLabelKV.FindStringSubmatch(kv)
				if m[1] == "le" {
					return `le="*"`
				}
				return m[1] + `="` + mask(m[2]) + `"`
			})
			line = series
		}
		if !seen[line] {
			seen[line] = true
			lines = append(lines, line)
		}
	}
	return lines
}
