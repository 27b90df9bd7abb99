// Package calib is the online calibration subsystem: a deterministic
// streaming quantile sketch over adversarial scores, the drift monitor
// that compares the live score distribution against a frozen calibration
// reference, and the persisted calibration snapshot that lets a restarted
// daemon keep its reference distribution.
//
// CLAP's detection quality hinges on a threshold calibrated against a
// benign score distribution (paper §5: thresholds picked at a target FPR
// on benign traffic). In a long-running deployment that distribution
// drifts and the operating FPR silently decays; this package provides the
// machinery to detect the decay (Monitor), quantify it (Sketch quantiles
// vs. the calibration Snapshot) and fix it atomically (a re-derived
// threshold installed through the backend.Hot pair swap). See DESIGN.md §9.
package calib

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Default sketch parameters: 1% relative accuracy, bounded at 2048
// buckets (a benign-score range spanning twelve decades fits with room to
// spare; beyond the cap the lowest buckets collapse, distorting only the
// quantiles nobody thresholds on).
const (
	DefaultAlpha      = 0.01
	DefaultMaxBuckets = 2048

	// minIndexable is the smallest score stored in a log bucket; values at
	// or below it (including exact zeros, common for short connections)
	// land in the dedicated zero bucket.
	minIndexable = 1e-12
)

// Sketch is a deterministic streaming quantile sketch over non-negative
// scores: log-spaced buckets with fixed relative accuracy alpha (a
// DDSketch-style design, but with no randomness anywhere). Identical
// inputs in identical order produce bit-identical bucket state, quantile
// estimates and serialized snapshots — the property the serving tests
// pin. Quantile estimates carry at most alpha relative error until the
// bucket cap forces low-bucket collapse.
//
// A Sketch is not safe for concurrent use; the Monitor serializes access.
type Sketch struct {
	alpha      float64
	gamma      float64
	lnGamma    float64
	maxBuckets int

	zero    uint64 // values <= minIndexable
	dropped uint64 // NaN / negative inputs, counted but never bucketed
	count   uint64 // bucketed observations (zero bucket included)
	buckets map[int]uint64
}

// NewSketch returns an empty sketch. alpha is the relative accuracy
// target in (0, 1) and maxBuckets bounds memory; zero values select the
// defaults.
func NewSketch(alpha float64, maxBuckets int) *Sketch {
	if alpha <= 0 || alpha >= 1 {
		alpha = DefaultAlpha
	}
	if maxBuckets <= 0 {
		maxBuckets = DefaultMaxBuckets
	}
	s := &Sketch{alpha: alpha, maxBuckets: maxBuckets, buckets: make(map[int]uint64)}
	s.derive()
	return s
}

func (s *Sketch) derive() {
	s.gamma = (1 + s.alpha) / (1 - s.alpha)
	s.lnGamma = math.Log(s.gamma)
}

// key maps a score to its log bucket index: bucket k holds values in
// (gamma^(k-1), gamma^k].
func (s *Sketch) key(x float64) int {
	return int(math.Ceil(math.Log(x) / s.lnGamma))
}

// value is bucket k's representative score — the log-space midpoint,
// which keeps the relative error of any value in the bucket within alpha.
func (s *Sketch) value(k int) float64 {
	return 2 * math.Pow(s.gamma, float64(k)) / (s.gamma + 1)
}

// Add records one score. Negative, NaN or infinite scores are counted as
// dropped but never bucketed — they cannot occur on the scoring paths,
// and poisoning the distribution with them would corrupt every quantile
// (+Inf in particular would key to the minimum bucket index and sort an
// infinitely anomalous score below every real one).
func (s *Sketch) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
		s.dropped++
		return
	}
	if x <= minIndexable {
		s.zero++
		s.count++
		return
	}
	k := s.key(x)
	s.buckets[k]++
	s.count++
	s.collapse()
}

// collapse folds the lowest bucket into its neighbour while the bucket
// cap is exceeded, bounding memory at the cost of low-quantile accuracy.
func (s *Sketch) collapse() {
	for len(s.buckets) > s.maxBuckets {
		lo1, lo2 := math.MaxInt, math.MaxInt // smallest, second smallest
		for k := range s.buckets {
			switch {
			case k < lo1:
				lo1, lo2 = k, lo1
			case k < lo2:
				lo2 = k
			}
		}
		s.buckets[lo2] += s.buckets[lo1]
		delete(s.buckets, lo1)
	}
}

// Count reports how many scores the sketch holds.
func (s *Sketch) Count() uint64 { return s.count }

// Dropped reports how many NaN/negative inputs were rejected.
func (s *Sketch) Dropped() uint64 { return s.dropped }

// Alpha reports the sketch's relative accuracy target.
func (s *Sketch) Alpha() float64 { return s.alpha }

// sortedKeys returns the occupied bucket indices in ascending order.
func (s *Sketch) sortedKeys() []int {
	keys := make([]int, 0, len(s.buckets))
	for k := range s.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Quantile estimates the q-th (0..1) quantile. NaN on an empty sketch.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.count)))
	if rank == 0 {
		rank = 1
	}
	cum := s.zero
	if cum >= rank {
		return 0
	}
	for _, k := range s.sortedKeys() {
		cum += s.buckets[k]
		if cum >= rank {
			return s.value(k)
		}
	}
	// Unreachable when counts are consistent; return the top bucket.
	keys := s.sortedKeys()
	return s.value(keys[len(keys)-1])
}

// FractionAtOrAbove estimates the fraction of recorded scores >= x — the
// operating-FPR estimator when x is the live threshold and the recorded
// scores are (predominantly) benign. The estimate includes x's own bucket
// whole, so it errs high by at most the bucket's alpha-wide slice.
func (s *Sketch) FractionAtOrAbove(x float64) float64 {
	if s.count == 0 {
		return 0
	}
	if x <= 0 {
		return 1
	}
	if x <= minIndexable {
		return 1
	}
	kx := s.key(x)
	var above uint64
	for k, c := range s.buckets {
		if k >= kx {
			above += c
		}
	}
	return float64(above) / float64(s.count)
}

// ThresholdAtFPR derives the operating threshold that keeps the fraction
// of recorded scores at or above it within targetFPR — the sketch-side
// mirror of metrics.ThresholdAtFPR, used for "live" recalibration. The
// returned threshold sits just above a bucket boundary, so it is
// conservative: the realized fraction never exceeds the target. +Inf on
// an empty sketch (nothing is flagged until real data arrives).
func (s *Sketch) ThresholdAtFPR(targetFPR float64) float64 {
	if s.count == 0 {
		return math.Inf(1)
	}
	allowed := uint64(targetFPR * float64(s.count))
	if allowed >= s.count {
		return 0
	}
	keys := s.sortedKeys()
	var cum uint64
	for i := len(keys) - 1; i >= 0; i-- {
		cum += s.buckets[keys[i]]
		if cum > allowed {
			// Bucket keys[i] cannot be fully admitted: the threshold moves
			// just above its upper bound, excluding it entirely. The
			// alpha/4 inflation (an eighth of a bucket in log space) keeps
			// the threshold robustly inside the next bucket, so key()
			// rounding can never fold the excluded bucket back in.
			return math.Pow(s.gamma, float64(keys[i])) * (1 + s.alpha/4)
		}
	}
	// Only the zero bucket remains below the allowance.
	return math.Nextafter(minIndexable, math.Inf(1))
}

// Merge folds o into s. Both sketches must share the same alpha — merging
// across accuracies would misalign every bucket boundary.
func (s *Sketch) Merge(o *Sketch) error {
	if o == nil {
		return nil
	}
	if o.alpha != s.alpha {
		return fmt.Errorf("calib: merging sketches with different alpha (%v vs %v)", o.alpha, s.alpha)
	}
	s.zero += o.zero
	s.dropped += o.dropped
	s.count += o.count
	for k, c := range o.buckets {
		s.buckets[k] += c
	}
	s.collapse()
	return nil
}

// Clone returns an independent deep copy.
func (s *Sketch) Clone() *Sketch {
	c := NewSketch(s.alpha, s.maxBuckets)
	c.zero, c.dropped, c.count = s.zero, s.dropped, s.count
	for k, v := range s.buckets {
		c.buckets[k] = v
	}
	return c
}

// Reset empties the sketch, keeping its configuration.
func (s *Sketch) Reset() {
	s.zero, s.dropped, s.count = 0, 0, 0
	s.buckets = make(map[int]uint64)
}

// The serialized sketch: magic, alpha bits, bucket cap, counters, then
// the buckets sorted by index — a byte-deterministic encoding, pinned by
// test (identical sketch state always marshals to identical bytes).
var sketchMagic = [8]byte{'C', 'L', 'A', 'P', 'S', 'K', 'T', '1'}

// MarshalBinary implements encoding.BinaryMarshaler deterministically.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(sketchMagic[:])
	w := func(v any) { binary.Write(&buf, binary.BigEndian, v) }
	w(math.Float64bits(s.alpha))
	w(uint32(s.maxBuckets))
	w(s.zero)
	w(s.dropped)
	w(s.count)
	keys := s.sortedKeys()
	w(uint32(len(keys)))
	for _, k := range keys {
		w(int32(k))
		w(s.buckets[k])
	}
	return buf.Bytes(), nil
}

// bucketBytes is one serialized bucket: an int32 index and a uint64 count.
const bucketBytes = 4 + 8

// UnmarshalBinary restores a sketch marshalled by MarshalBinary.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	var magic [8]byte
	if _, err := r.Read(magic[:]); err != nil || magic != sketchMagic {
		return fmt.Errorf("calib: not a sketch snapshot")
	}
	var (
		alphaBits uint64
		maxB, n   uint32
	)
	rd := func(v any) error { return binary.Read(r, binary.BigEndian, v) }
	if err := rd(&alphaBits); err != nil {
		return fmt.Errorf("calib: truncated sketch snapshot: %w", err)
	}
	alpha := math.Float64frombits(alphaBits)
	if !(alpha > 0 && alpha < 1) {
		return fmt.Errorf("calib: sketch snapshot carries invalid alpha %v", alpha)
	}
	if err := rd(&maxB); err != nil {
		return fmt.Errorf("calib: truncated sketch snapshot: %w", err)
	}
	if maxB == 0 {
		return fmt.Errorf("calib: sketch snapshot carries zero bucket cap")
	}
	s.alpha, s.maxBuckets = alpha, int(maxB)
	s.derive()
	if err := rd(&s.zero); err != nil {
		return fmt.Errorf("calib: truncated sketch snapshot: %w", err)
	}
	if err := rd(&s.dropped); err != nil {
		return fmt.Errorf("calib: truncated sketch snapshot: %w", err)
	}
	if err := rd(&s.count); err != nil {
		return fmt.Errorf("calib: truncated sketch snapshot: %w", err)
	}
	if err := rd(&n); err != nil {
		return fmt.Errorf("calib: truncated sketch snapshot: %w", err)
	}
	// The declared count sizes the map, so hold it to the sketch's own cap
	// and to the buckets the remaining bytes can hold.
	if n > maxB {
		return fmt.Errorf("calib: sketch snapshot holds %d buckets over its cap of %d", n, maxB)
	}
	if uint64(n)*bucketBytes > uint64(r.Len()) {
		return fmt.Errorf("calib: truncated sketch buckets: %d declared, room for %d", n, r.Len()/bucketBytes)
	}
	s.buckets = make(map[int]uint64, n)
	var total uint64 = s.zero
	for i := uint32(0); i < n; i++ {
		var k int32
		var c uint64
		if err := rd(&k); err != nil {
			return fmt.Errorf("calib: truncated sketch buckets: %w", err)
		}
		if err := rd(&c); err != nil {
			return fmt.Errorf("calib: truncated sketch buckets: %w", err)
		}
		s.buckets[int(k)] += c
		total += c
	}
	if total != s.count {
		return fmt.Errorf("calib: sketch snapshot count %d does not match buckets (%d)", s.count, total)
	}
	return nil
}
