package clap

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Sink consumes pipeline results: Emit is called once per connection in
// capture order, as soon as that connection and every earlier one are
// scored, while later ones are still scoring; then Finish once with the
// run summary. Implementations need no locking — the pipeline emits from
// a single goroutine, and Run returns only after the last Emit.
type Sink interface {
	Emit(r Result) error
	Finish(sum *RunSummary) error
}

// NewTextReport renders the clap-detect text format: per-connection score
// lines when verbose, a top-10 ranking in score-only mode, and the flagged
// report with Top-N window localization when a threshold is set. The
// output is byte-identical to the pre-pipeline clap-detect renderer.
func NewTextReport(w io.Writer, verbose bool) Sink {
	return &textReport{w: w, verbose: verbose}
}

type textReport struct {
	w       io.Writer
	verbose bool
	err     error
}

func (t *textReport) printf(format string, args ...any) {
	if t.err == nil {
		_, t.err = fmt.Fprintf(t.w, format, args...)
	}
}

func (t *textReport) Emit(r Result) error {
	if t.verbose {
		t.printf("%-48s score=%.6f\n", r.Conn.Key, r.Score)
	}
	return t.err
}

// Finish renders the run footer from the summary's complete result list
// (capture order), so Emit keeps no per-connection state of its own.
func (t *textReport) Finish(sum *RunSummary) error {
	if sum.Threshold <= 0 {
		// Score-only mode: rank everything (ties broken by capture order so
		// output is deterministic).
		idx := make([]int, len(sum.Results))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return sum.Results[idx[a]].Score > sum.Results[idx[b]].Score
		})
		t.printf("top connections by adversarial score:\n")
		for rank, i := range idx {
			if rank >= 10 {
				break
			}
			t.printf("%2d. %-48s score=%.6f\n", rank+1, sum.Results[i].Conn.Key, sum.Results[i].Score)
		}
		return t.err
	}

	t.printf("%d/%d connections flagged at threshold %.6f\n", sum.Flagged, len(sum.Results), sum.Threshold)
	for _, r := range sum.Results {
		if !r.Flagged {
			continue
		}
		t.printf("\n%s  score=%.6f peak-window=%d\n", r.Conn.Key, r.Score, r.PeakWindow)
		for _, w := range r.TopWindows {
			end := w + sum.WindowSpan - 1
			if end >= r.Conn.Len() {
				end = r.Conn.Len() - 1
			}
			t.printf("  suspicious window %d: packets %d-%d", w, w, end)
			for p := w; p <= end && p < r.Conn.Len(); p++ {
				t.printf("\n    [%d] %v", p, r.Conn.Packets[p])
			}
			t.printf("\n")
		}
	}
	return t.err
}

// jsonResult is the stable wire shape of one NewJSONLines record.
type jsonResult struct {
	Key        string  `json:"key"`
	Score      float64 `json:"score"`
	Flagged    bool    `json:"flagged"`
	PeakWindow int     `json:"peak_window"`
	TopWindows []int   `json:"top_windows,omitempty"`
	Attack     string  `json:"attack,omitempty"`
}

// jsonSummary is the trailing summary record of a NewJSONLines stream,
// distinguished from result records by the "summary" field.
type jsonSummary struct {
	Summary     bool    `json:"summary"`
	Connections int     `json:"connections"`
	Flagged     int     `json:"flagged"`
	Threshold   float64 `json:"threshold"`
	Skipped     int     `json:"skipped"`
}

// NewJSONLines renders one JSON object per connection (JSON Lines), in
// capture order, followed by a final summary object — the
// machine-readable sink for piping clap-detect into other tooling.
func NewJSONLines(w io.Writer) Sink { return &jsonLines{enc: json.NewEncoder(w)} }

type jsonLines struct{ enc *json.Encoder }

func (j *jsonLines) Emit(r Result) error {
	return j.enc.Encode(jsonResult{
		Key:        r.Conn.Key.String(),
		Score:      r.Score,
		Flagged:    r.Flagged,
		PeakWindow: r.PeakWindow,
		TopWindows: r.TopWindows,
		Attack:     r.Conn.AttackName,
	})
}

func (j *jsonLines) Finish(sum *RunSummary) error {
	return j.enc.Encode(jsonSummary{
		Summary:     true,
		Connections: len(sum.Results),
		Flagged:     sum.Flagged,
		Threshold:   sum.Threshold,
		Skipped:     sum.Skipped,
	})
}

// NewDedupAlertLog is the alert log hardened for always-on serving: a
// flagged connection is written at most once per dedup window per
// connection key (retransmitted or re-segmented flows re-entering the
// pipeline do not spam the log), and output is capped at maxPerSec lines
// per second so an attack burst cannot turn the alert channel into its
// own denial of service. Suppressed alerts are counted and summarised by
// Finish. window <= 0 disables dedup; maxPerSec <= 0 disables the cap.
func NewDedupAlertLog(w io.Writer, window time.Duration, maxPerSec int) Sink {
	return &dedupAlertLog{
		w:         w,
		window:    window,
		maxPerSec: maxPerSec,
		seen:      make(map[string]time.Time),
		now:       time.Now,
	}
}

type dedupAlertLog struct {
	w         io.Writer
	window    time.Duration
	maxPerSec int

	seen       map[string]time.Time // key -> last alert written
	second     time.Time            // start of the current rate bucket
	inSecond   int                  // lines written in the current bucket
	suppressed int
	nextPrune  time.Time // earliest time the next expiry scan may run
	pruneScans int       // full scans performed (observability for tests)

	now func() time.Time // injectable clock for tests
	err error
}

func (a *dedupAlertLog) Emit(r Result) error {
	if !r.Flagged || a.err != nil {
		return a.err
	}
	now := a.now()
	key := r.Conn.Key.String()
	if a.window > 0 {
		if last, ok := a.seen[key]; ok && now.Sub(last) < a.window {
			a.suppressed++
			return nil
		}
	}
	if a.maxPerSec > 0 {
		if bucket := now.Truncate(time.Second); !bucket.Equal(a.second) {
			a.second, a.inSecond = bucket, 0
		}
		if a.inSecond >= a.maxPerSec {
			// Rate-capped alerts are not recorded as seen, so the key can
			// still alert once the burst subsides.
			a.suppressed++
			return nil
		}
		a.inSecond++
	}
	if a.window > 0 {
		// Opportunistically expire stale entries so a long-running server
		// does not accumulate every key it ever flagged. The scan is
		// amortized to at most once per dedup window: a sustained burst of
		// distinct keys past the size trigger pays one O(n) sweep per
		// window instead of one per alert (which went quadratic).
		if len(a.seen) > 4096 && !now.Before(a.nextPrune) {
			for k, t := range a.seen {
				if now.Sub(t) >= a.window {
					delete(a.seen, k)
				}
			}
			a.pruneScans++
			a.nextPrune = now.Add(a.window)
		}
		a.seen[key] = now
	}
	truth := ""
	if r.Conn.AttackName != "" {
		truth = "  (attack: " + r.Conn.AttackName + ")"
	}
	_, a.err = fmt.Fprintf(a.w, "ALERT %-44s score=%.5f peak-window=%d%s\n",
		r.Conn.Key, r.Score, r.PeakWindow, truth)
	return a.err
}

func (a *dedupAlertLog) Finish(*RunSummary) error {
	if a.err == nil && a.suppressed > 0 {
		_, a.err = fmt.Fprintf(a.w, "(%d alerts suppressed: dedup window %v, rate cap %d/s)\n",
			a.suppressed, a.window, a.maxPerSec)
	}
	return a.err
}
