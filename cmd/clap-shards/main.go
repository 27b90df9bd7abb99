// Command clap-shards fronts a fanout fleet: N clap-serve workers, each
// capturing a disjoint PACKET_FANOUT_HASH shard of one interface
// (clap-serve -source afpacket:IFACE:ID with a shared ID), present one
// merged ops surface here. The aggregator holds no state of its own —
// every request fans out to the workers concurrently and merges whatever
// answers arrive, so a down worker degrades the view instead of taking
// it out.
//
//	GET /healthz     fleet liveness: per-worker status, 503 only when
//	                 every worker is unreachable
//	GET /metrics     the workers' Prometheus expositions merged into
//	                 one, every sample tagged shard="N" (HELP/TYPE
//	                 emitted once per family, so the merge stays a
//	                 valid exposition)
//	GET /v1/summary  fleet totals (scored/packets/flagged/rate summed
//	                 across shards) plus each worker's own summary
//	GET /v1/drift    each shard's drift status plus the fleet maximum
//	                 and whether any shard is alerting
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// worker is one clap-serve instance in the fleet.
type worker struct {
	// Shard is the worker's position in the -worker list; it becomes the
	// shard label on merged metrics.
	Shard int
	// URL is the worker's ops API base ("http://127.0.0.1:8081").
	URL string
}

// fetchResult is one worker's answer to a fan-out request.
type fetchResult struct {
	worker
	body []byte
	err  error
}

// aggregator merges N workers' ops surfaces.
type aggregator struct {
	workers []worker
	client  *http.Client
}

func newAggregator(urls []string, client *http.Client) *aggregator {
	a := &aggregator{client: client}
	for i, u := range urls {
		a.workers = append(a.workers, worker{Shard: i, URL: strings.TrimRight(u, "/")})
	}
	return a
}

// fetchAll GETs path from every worker concurrently. Results come back
// in worker order; a worker that is down or answers non-200 carries an
// error instead of a body.
func (a *aggregator) fetchAll(ctx context.Context, path string) []fetchResult {
	out := make([]fetchResult, len(a.workers))
	var wg sync.WaitGroup
	for i, wk := range a.workers {
		wg.Add(1)
		go func(i int, wk worker) {
			defer wg.Done()
			out[i] = fetchResult{worker: wk}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, wk.URL+path, nil)
			if err != nil {
				out[i].err = err
				return
			}
			resp, err := a.client.Do(req)
			if err != nil {
				out[i].err = err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				out[i].err = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				out[i].err = fmt.Errorf("%s%s: %s: %s", wk.URL, path, resp.Status, strings.TrimSpace(string(body)))
				return
			}
			out[i].body = body
		}(i, wk)
	}
	wg.Wait()
	return out
}

func (a *aggregator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", a.handleHealthz)
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/v1/summary", a.handleSummary)
	mux.HandleFunc("/v1/drift", a.handleDrift)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (a *aggregator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	results := a.fetchAll(r.Context(), "/healthz")
	up := 0
	shards := make([]map[string]any, len(results))
	for i, res := range results {
		s := map[string]any{"shard": res.Shard, "url": res.URL}
		if res.err != nil {
			s["status"] = "down"
			s["error"] = res.err.Error()
		} else {
			up++
			s["status"] = "ok"
			var h map[string]any
			if json.Unmarshal(res.body, &h) == nil {
				s["model"] = h["model"]
				s["kernel"] = h["kernel"]
				s["scored"] = h["scored"]
			}
		}
		shards[i] = s
	}
	status, code := "ok", http.StatusOK
	switch {
	case up == 0:
		status, code = "down", http.StatusServiceUnavailable
	case up < len(results):
		status = "degraded"
	}
	writeJSON(w, code, map[string]any{
		"status":  status,
		"workers": len(results),
		"up":      up,
		"shards":  shards,
	})
}

// promFamily is one metric family being merged: its metadata (from the
// first shard that declared it) and every shard's samples.
type promFamily struct {
	name    string
	help    string // full "# HELP ..." line
	typ     string // full "# TYPE ..." line
	samples []string
}

// mergeExpositions folds per-shard Prometheus text expositions into one.
// Families keep first-seen order; each sample line gains a shard label
// as its first label, so series that collide across workers (they all
// export the same names) stay distinct and the output remains a valid
// exposition with exactly one HELP/TYPE per family.
func mergeExpositions(results []fetchResult) string {
	var order []string
	fams := map[string]*promFamily{}
	family := func(name string) *promFamily {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{name: name}
			fams[name] = f
			order = append(order, name)
		}
		return f
	}
	for _, res := range results {
		if res.err != nil {
			continue
		}
		// Comment lines declare the family of the samples that follow;
		// histogram samples (name_bucket/_sum/_count) belong to the
		// declared base family, which this tracking preserves.
		var current *promFamily
		for _, line := range strings.Split(string(res.body), "\n") {
			switch {
			case line == "":
			case strings.HasPrefix(line, "# HELP "):
				rest := strings.TrimPrefix(line, "# HELP ")
				name, _, _ := strings.Cut(rest, " ")
				current = family(name)
				if current.help == "" {
					current.help = line
				}
			case strings.HasPrefix(line, "# TYPE "):
				rest := strings.TrimPrefix(line, "# TYPE ")
				name, _, _ := strings.Cut(rest, " ")
				current = family(name)
				if current.typ == "" {
					current.typ = line
				}
			case strings.HasPrefix(line, "#"):
			default:
				if current == nil {
					// A sample with no preceding metadata: its own family.
					name := line
					if i := strings.IndexAny(line, "{ "); i >= 0 {
						name = line[:i]
					}
					current = family(name)
				}
				current.samples = append(current.samples, injectShardLabel(line, res.Shard))
			}
		}
	}
	var b strings.Builder
	for _, name := range order {
		f := fams[name]
		if f.help != "" {
			b.WriteString(f.help)
			b.WriteByte('\n')
		}
		if f.typ != "" {
			b.WriteString(f.typ)
			b.WriteByte('\n')
		}
		for _, s := range f.samples {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// injectShardLabel rewrites one sample line to carry shard="N" as its
// first label. Label values may contain spaces and escaped quotes but
// never raw newlines (the exposition escapes them), so scanning for the
// brace that opens the label set — which precedes any quote — is safe.
func injectShardLabel(line string, shard int) string {
	tag := fmt.Sprintf(`shard="%d"`, shard)
	brace := strings.IndexByte(line, '{')
	space := strings.IndexByte(line, ' ')
	if brace >= 0 && (space < 0 || brace < space) {
		if strings.HasPrefix(line[brace:], "{}") {
			return line[:brace] + "{" + tag + "}" + line[brace+2:]
		}
		return line[:brace+1] + tag + "," + line[brace+1:]
	}
	if space < 0 {
		return line // not a sample; emit unchanged
	}
	return line[:space] + "{" + tag + "}" + line[space:]
}

func (a *aggregator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	results := a.fetchAll(r.Context(), "/metrics")
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	up := 0
	for _, res := range results {
		if res.err == nil {
			up++
		}
	}
	// The aggregator's own series lead the exposition, so a scrape shows
	// fleet liveness even when every worker is down.
	fmt.Fprintf(w, "# HELP clap_shards_workers Workers configured in the fleet.\n# TYPE clap_shards_workers gauge\nclap_shards_workers %d\n", len(results))
	fmt.Fprintf(w, "# HELP clap_shards_worker_up 1 when the shard's worker answered the scrape.\n# TYPE clap_shards_worker_up gauge\n")
	for _, res := range results {
		v := 0
		if res.err == nil {
			v = 1
		}
		fmt.Fprintf(w, "clap_shards_worker_up{shard=\"%d\"} %d\n", res.Shard, v)
	}
	io.WriteString(w, mergeExpositions(results))
}

func (a *aggregator) handleSummary(w http.ResponseWriter, r *http.Request) {
	results := a.fetchAll(r.Context(), "/v1/summary")
	fleet := map[string]float64{}
	shards := make([]map[string]any, len(results))
	for i, res := range results {
		s := map[string]any{"shard": res.Shard, "url": res.URL}
		if res.err != nil {
			s["error"] = res.err.Error()
			shards[i] = s
			continue
		}
		var sum map[string]any
		if err := json.Unmarshal(res.body, &sum); err != nil {
			s["error"] = fmt.Sprintf("unparseable summary: %v", err)
			shards[i] = s
			continue
		}
		s["summary"] = sum
		shards[i] = s
		// Additive counters and capacities sum across shards; everything
		// else stays in the per-shard view.
		for _, k := range []string{"scored", "packets", "flagged", "packets_per_second", "queue_depth", "queue_capacity"} {
			if v, ok := sum[k].(float64); ok {
				fleet[k] += v
			}
		}
	}
	keys := make([]string, 0, len(fleet))
	for k := range fleet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	writeJSON(w, http.StatusOK, map[string]any{
		"fleet":  fleet,
		"shards": shards,
	})
}

func (a *aggregator) handleDrift(w http.ResponseWriter, r *http.Request) {
	results := a.fetchAll(r.Context(), "/v1/drift")
	shards := make([]map[string]any, len(results))
	maxDrift := 0.0
	alerting := false
	var alerts float64
	for i, res := range results {
		s := map[string]any{"shard": res.Shard, "url": res.URL}
		if res.err != nil {
			s["error"] = res.err.Error()
			shards[i] = s
			continue
		}
		var body map[string]any
		if err := json.Unmarshal(res.body, &body); err != nil {
			s["error"] = fmt.Sprintf("unparseable drift status: %v", err)
			shards[i] = s
			continue
		}
		s["drift"] = body["drift"]
		s["alerts_total"] = body["alerts_total"]
		if v, ok := body["alerts_total"].(float64); ok {
			alerts += v
		}
		if ds, ok := body["drift"].(map[string]any); ok {
			if v, ok := ds["drift"].(float64); ok && v > maxDrift {
				maxDrift = v
			}
			if v, ok := ds["alert"].(bool); ok && v {
				alerting = true
			}
		}
		shards[i] = s
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"fleet": map[string]any{
			"max_drift":    maxDrift,
			"alerting":     alerting,
			"alerts_total": alerts,
		},
		"shards": shards,
	})
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("clap-shards: ")
	var (
		addr    = flag.String("addr", "127.0.0.1:8090", "aggregator listen address")
		timeout = flag.Duration("timeout", 5*time.Second, "per-worker fetch timeout")
	)
	var urls []string
	flag.Func("worker", "ops API base URL of one clap-serve worker (repeatable, shard order)", func(v string) error {
		if v == "" {
			return fmt.Errorf("-worker: empty URL")
		}
		urls = append(urls, v)
		return nil
	})
	flag.Parse()
	if len(urls) == 0 {
		log.Fatal("need at least one -worker URL")
	}
	a := newAggregator(urls, &http.Client{Timeout: *timeout})
	log.Printf("aggregating %d workers on http://%s", len(urls), *addr)
	log.Fatal(http.ListenAndServe(*addr, a.Handler()))
}
