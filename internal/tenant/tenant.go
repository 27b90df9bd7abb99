// Package tenant holds the per-tenant serving state for multi-tenant
// fleet serving: one daemon watching many capture points (sites, links,
// customers), each needing its own model handle, operating threshold,
// calibration reference, drift monitor, and admission quota — while every
// tenant's connections share ONE batched scoring engine, so cross-tenant
// micro-batching keeps batch occupancy high even when each tenant alone
// is lightly loaded.
//
// A Tenant owns:
//
//   - Hot: the reload-safe (model, threshold) pair handle. Scoring pins
//     THIS tenant's CurrentPair per connection, so a per-tenant hot
//     reload or recalibration is atomic for exactly that tenant's
//     verdicts and invisible to every other tenant's.
//   - Monitor: the tenant's drift monitor against its own calibration
//     reference (nil when drift monitoring is disabled).
//   - Quota: fair-share admission — max in-flight plus a deliveries/sec
//     token bucket — evaluated BEFORE the shared ingest queue, so a
//     noisy tenant sheds its own overload and never its neighbours'.
//   - Counters: delivered/shed/scored/packets/flagged/reloads/drift
//     accounting, exported under a tenant="..." Prometheus label.
//
// The serving layer composes a Tenant with its flagged ring (Ring) and
// source list; this package stays free of serving types so it can be
// reused by any multi-tenant frontend.
package tenant

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clap/internal/backend"
	"clap/internal/calib"
)

// Quota bounds one tenant's share of the daemon. The zero value is
// unlimited: admission always succeeds.
type Quota struct {
	// MaxInFlight caps connections admitted but not yet emitted (queued
	// or inside the scoring stream). 0: unlimited.
	MaxInFlight int
	// Rate is the sustained deliveries/second token-bucket refill. 0:
	// unlimited.
	Rate float64
	// Burst is the token bucket depth (deliveries admitted back-to-back
	// after an idle stretch). 0 with a positive Rate defaults to
	// max(1, Rate) tokens — one second of quota.
	Burst int
}

// Validate rejects quotas that could never admit anything or don't
// parse as bounds.
func (q Quota) Validate() error {
	if q.MaxInFlight < 0 {
		return fmt.Errorf("tenant: quota max-in-flight %d must be >= 0", q.MaxInFlight)
	}
	if q.Rate < 0 || q.Rate != q.Rate {
		return fmt.Errorf("tenant: quota rate %v must be >= 0", q.Rate)
	}
	if q.Burst < 0 {
		return fmt.Errorf("tenant: quota burst %d must be >= 0", q.Burst)
	}
	return nil
}

// Unlimited reports whether the quota never refuses admission.
func (q Quota) Unlimited() bool { return q.MaxInFlight == 0 && q.Rate == 0 }

// Tenant is one named source group's serving state. All fields are set
// at construction; the counters and bucket state are safe for the
// serving layer's concurrency (ingest goroutines admit, the emit
// goroutine releases and accounts).
type Tenant struct {
	// Name identifies the tenant ("default" for the implicit tenant the
	// daemon's top-level flags configure).
	Name string

	// Hot publishes this tenant's (model, threshold, generation) in one
	// atomic value; per-connection scoring pins through it.
	Hot *backend.Hot

	// Monitor tracks the tenant's live score distribution against its
	// calibration reference (nil: drift monitoring disabled).
	Monitor *calib.Monitor

	// ModelPath and CalibrationFile are the tenant's reload source and
	// calibration snapshot path (either may be empty).
	ModelPath       string
	CalibrationFile string

	// Quota is the tenant's admission bound.
	Quota Quota

	// ReloadMu serializes this tenant's reloads; the pair swap itself is
	// atomic, tenants reload independently.
	ReloadMu sync.Mutex

	// Accounting, exported per tenant.
	Delivered   atomic.Uint64 // connections admitted to the shared queue
	Shed        atomic.Uint64 // connections refused (quota or full queue)
	Scored      atomic.Uint64
	Packets     atomic.Uint64
	Flagged     atomic.Uint64
	Reloads     atomic.Uint64
	DriftAlerts atomic.Uint64

	inFlight atomic.Int64
	// traceSeq counts delivered connections for deterministic head
	// sampling; see SampleTrace.
	traceSeq atomic.Uint64

	// Token bucket state; guarded because several ingest goroutines may
	// deliver for one tenant.
	bucketMu sync.Mutex
	tokens   float64
	lastFill time.Time
}

// New builds a Tenant around a reload-safe handle. The quota is
// validated; monitor may be nil.
func New(name string, hot *backend.Hot, monitor *calib.Monitor, q Quota) (*Tenant, error) {
	if name == "" {
		return nil, fmt.Errorf("tenant: tenant needs a name")
	}
	if hot == nil {
		return nil, fmt.Errorf("tenant: tenant %q needs a model handle", name)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	t := &Tenant{Name: name, Hot: hot, Monitor: monitor, Quota: q}
	if q.Rate > 0 {
		burst := float64(q.Burst)
		if burst == 0 {
			burst = q.Rate
			if burst < 1 {
				burst = 1
			}
		}
		t.tokens = burst
	}
	return t, nil
}

// burst is the bucket depth in tokens.
func (t *Tenant) burst() float64 {
	b := float64(t.Quota.Burst)
	if b == 0 {
		b = t.Quota.Rate
		if b < 1 {
			b = 1
		}
	}
	return b
}

// Admit applies the quota at delivery time: it checks the in-flight cap
// and, if a rate is configured, takes one token from the bucket. On
// success the tenant's in-flight count is incremented (balanced by
// Release at emit). On refusal nothing is consumed and the shed counter
// is bumped — the caller must NOT enqueue. now is injected for
// deterministic tests.
func (t *Tenant) Admit(now time.Time) bool {
	if t.Quota.MaxInFlight > 0 {
		if n := t.inFlight.Add(1); n > int64(t.Quota.MaxInFlight) {
			t.inFlight.Add(-1)
			t.Shed.Add(1)
			return false
		}
	} else {
		t.inFlight.Add(1)
	}
	if t.Quota.Rate > 0 {
		t.bucketMu.Lock()
		if !t.lastFill.IsZero() {
			if dt := now.Sub(t.lastFill).Seconds(); dt > 0 {
				t.tokens += dt * t.Quota.Rate
				if max := t.burst(); t.tokens > max {
					t.tokens = max
				}
			}
		}
		t.lastFill = now
		ok := t.tokens >= 1
		if ok {
			t.tokens--
		}
		t.bucketMu.Unlock()
		if !ok {
			t.inFlight.Add(-1)
			t.Shed.Add(1)
			return false
		}
	}
	return true
}

// Release balances a successful Admit once the connection has been
// scored and emitted (or shed at the shared queue after admission).
func (t *Tenant) Release() { t.inFlight.Add(-1) }

// InFlight reports connections admitted but not yet released — the
// tenant's share of the queue plus the scoring stream.
func (t *Tenant) InFlight() int { return int(t.inFlight.Load()) }

// SampleTrace decides deterministic head sampling for one delivered
// connection: the 1st, (period+1)th, (2·period+1)th, ... delivery per
// tenant is sampled, so a tenant delivering any traffic at all always
// retains at least one deep trace and the retention rate is exactly
// 1/period regardless of load. period <= 1 samples everything.
func (t *Tenant) SampleTrace(period int) bool {
	n := t.traceSeq.Add(1) - 1
	if period <= 1 {
		return true
	}
	return n%uint64(period) == 0
}

// Threshold reports the tenant's operating threshold (0: none,
// score-only).
func (t *Tenant) Threshold() float64 {
	_, th := t.Hot.CurrentPair()
	return th
}
