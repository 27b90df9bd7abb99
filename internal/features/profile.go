package features

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"clap/internal/flow"
)

// Profile holds the bounds fitted on benign training traffic. The same
// bounds serve two purposes:
//
//   - min-max scaling of numeric features into [0,1] (clamped slightly
//     beyond so adversarial extremes stay finite but visible), and
//   - the out-of-range amplification indicators (§3.3(b)): a numeric value
//     outside the benign envelope raises the corresponding binary flag.
type Profile struct {
	Min [NumPacket]float64
	Max [NumPacket]float64
	// Fitted is the number of packets the profile was fitted on.
	Fitted int
}

// rangeTolerance widens the benign envelope fractionally before declaring a
// value out-of-range, so borderline benign values near the training extremes
// do not flap.
const rangeTolerance = 1e-9

// isNumeric marks the slots subject to scaling and range checks.
var isNumeric = func() [NumPacket]bool {
	var m [NumPacket]bool
	for _, i := range numericTCP {
		m[i] = true
	}
	for _, i := range numericIP {
		m[i] = true
	}
	return m
}()

// FitProfile learns feature bounds over benign connections.
func FitProfile(conns []*flow.Connection) *Profile {
	p := &Profile{}
	for i := range p.Min {
		p.Min[i] = math.Inf(1)
		p.Max[i] = math.Inf(-1)
	}
	for _, c := range conns {
		for _, v := range ExtractRaw(c) {
			p.Fitted++
			for i, x := range v {
				if x < p.Min[i] {
					p.Min[i] = x
				}
				if x > p.Max[i] {
					p.Max[i] = x
				}
			}
		}
	}
	return p
}

// scale min-max normalises a numeric value with clamping to [-0.5, 1.5]:
// adversarial extremes saturate rather than exploding the autoencoder
// input, while the out-of-range indicator carries the "how far" signal.
func (p *Profile) scale(i int, x float64) float64 {
	span := p.Max[i] - p.Min[i]
	if span <= 0 {
		// Constant feature in training: deviation alone is the signal.
		if x == p.Min[i] {
			return 0
		}
		if x > p.Min[i] {
			return 1.5
		}
		return -0.5
	}
	s := (x - p.Min[i]) / span
	if s < -0.5 {
		return -0.5
	}
	if s > 1.5 {
		return 1.5
	}
	return s
}

// outOfRange reports whether x falls outside the fitted envelope of slot i.
func (p *Profile) outOfRange(i int, x float64) bool {
	tol := rangeTolerance * (1 + math.Abs(p.Max[i]) + math.Abs(p.Min[i]))
	return x < p.Min[i]-tol || x > p.Max[i]+tol
}

// Vectorize produces the scaled 51-dim packet-feature vectors for a
// connection, with amplification indicators computed against the fitted
// bounds. The result is the caller's: two allocations per connection, the
// vectors' slab and their row headers.
func (p *Profile) Vectorize(c *flow.Connection) [][]float64 {
	return p.VectorizeInto(c, make([]float64, c.Len()*NumPacket), make([][]float64, c.Len()))
}

// VectorizeInto is Vectorize over memory the caller owns and may reuse —
// slab of at least c.Len()·NumPacket values (contents ignored) and rows of
// at least c.Len() headers. The returned rows are rows itself, pointing into
// slab.
func (p *Profile) VectorizeInto(c *flow.Connection, slab []float64, rows [][]float64) [][]float64 {
	raws := extractRawInto(c, slab, rows)
	for _, v := range raws {
		// Amplification flags first (they read raw values)...
		for k, slot := range numericTCP {
			if p.outOfRange(slot, v[slot]) {
				v[AmpTCPStart+k] = 1
			}
		}
		for k, slot := range numericIP {
			if p.outOfRange(slot, v[slot]) {
				v[AmpIPStart+k] = 1
			}
		}
		// ...then scale numerics in place.
		for i := 0; i < NumRNN; i++ {
			if isNumeric[i] {
				v[i] = p.scale(i, v[i])
			}
		}
	}
	return raws
}

// RNNInputs slices the first NumRNN features of each vector (shared
// backing array; callers must not mutate).
func RNNInputs(vecs [][]float64) [][]float64 {
	out := make([][]float64, len(vecs))
	for i, v := range vecs {
		out[i] = v[:NumRNN]
	}
	return out
}

// Save writes the profile with gob.
func (p *Profile) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(p)
}

// LoadProfile reads a profile written by Save.
func LoadProfile(r io.Reader) (*Profile, error) {
	var p Profile
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("features: loading profile: %w", err)
	}
	return &p, nil
}
