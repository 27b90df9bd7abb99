package core

import (
	"fmt"

	"clap/internal/features"
	"clap/internal/flow"
	"clap/internal/nn"
)

// LockstepSession binds connections to the rows of one nn.GRULockstep
// fleet and harvests their context profiles as the fleet steps: the
// stage-(b) window production of StackedProfilesBatched, K connections
// wide. The engine's ragged scheduler drives it row by row —
//
//	steps := s.Load(row, conn)   // bind a connection to a free row
//	s.Step(n)                    // advance the active prefix [0, n)
//	wins := s.Windows(row)       // after steps Steps: the stacked windows
//	s.Move(dst, src)             // compaction, after harvesting src
//
// Windows results are bit-identical to Detector.StackedProfilesBatched
// for the same connection (same pooled carving, so they are recycled
// through the same RecycleStacked), because the lockstep gates are
// bit-identical to ForwardGates and everything downstream of the gates
// is shared code.
//
// A session is single-goroutine state over a read-only detector; open
// one per worker.
type LockstepSession struct {
	d         *Detector
	ls        *nn.GRULockstep
	featWidth int
	rows      []lockstepConn
}

type lockstepConn struct {
	fs   *slab // pooled feature vectors, held until the row is harvested
	vecs [][]float64
	pos  int
	ps   *slab // pooled context profiles, one row per step taken
}

// LockstepSupported reports whether this detector's configuration runs a
// GRU on the scoring path at all. Gate-free configurations (Baseline #1)
// build their profiles without a recurrence — there is nothing to step
// in lockstep, and NewLockstepSession returns nil for them.
func (d *Detector) LockstepSupported() bool {
	return d.Cfg.UseUpdateGates || d.Cfg.UseResetGates
}

// NewLockstepSession opens a k-row lockstep window-production session,
// or nil when the configuration has no recurrence to batch.
func (d *Detector) NewLockstepSession(k int) *LockstepSession {
	if !d.LockstepSupported() {
		return nil
	}
	return &LockstepSession{
		d:         d,
		ls:        d.RNN.NewLockstep(k),
		featWidth: d.featWidth(),
		rows:      make([]lockstepConn, k),
	}
}

// featWidth is the packet-feature prefix of a context profile row (the
// part that comes straight from the feature vector, before gate blocks).
func (d *Detector) featWidth() int {
	if d.Cfg.UseAmplification {
		return features.NumPacket
	}
	return features.NumRNN
}

// Load binds a connection to a fleet row and returns how many lockstep
// steps it needs (its packet count). 0 means the connection produces no
// windows — it never occupies the row and Windows must not be called.
func (s *LockstepSession) Load(row int, c *flow.Connection) int {
	fs, vecs := s.d.vectorizePooled(c)
	if fs == nil {
		return 0
	}
	s.ls.Reset(row)
	s.rows[row] = lockstepConn{
		fs:   fs,
		vecs: vecs,
		ps:   s.d.profileSlab(len(vecs)),
	}
	return len(vecs)
}

// Step advances rows [0, n) by one packet each: stages every row's next
// feature vector, steps the fleet, and appends each row's context
// profile (packet features ++ gate blocks, Equation 2) to its pooled
// profile backing. Every row in the prefix must be mid-sequence.
func (s *LockstepSession) Step(n int) {
	for b := 0; b < n; b++ {
		r := &s.rows[b]
		if r.pos >= len(r.vecs) {
			panic(fmt.Sprintf("core: lockstep Step over finished row %d", b))
		}
		s.ls.StageInput(b, r.vecs[r.pos][:features.NumRNN])
	}
	s.ls.Step(n)
	for b := 0; b < n; b++ {
		r := &s.rows[b]
		ps := r.ps
		start := len(ps.data)
		ps.data = append(ps.data, r.vecs[r.pos][:s.featWidth]...)
		if s.d.Cfg.UseUpdateGates {
			ps.data = append(ps.data, s.ls.Z(b)...)
		}
		if s.d.Cfg.UseResetGates {
			ps.data = append(ps.data, s.ls.R(b)...)
		}
		// Two-index carving, like contextProfiles' pooled mode: the whole
		// backing is recoverable from row 0 at recycle time.
		ps.rows = append(ps.rows, ps.data[start:])
		r.pos++
	}
}

// Windows returns the finished row's stacked profile windows — pooled,
// bit-identical to StackedProfilesBatched(c), to be handed back through
// Detector.RecycleStacked after scoring. The row is released.
func (s *LockstepSession) Windows(row int) [][]float64 {
	r := &s.rows[row]
	if r.pos < len(r.vecs) {
		panic(fmt.Sprintf("core: lockstep Windows on unfinished row %d (%d/%d)", row, r.pos, len(r.vecs)))
	}
	ps := r.ps
	// The vectors were copied into the profile rows step by step; the row
	// gives their slab up here, where it is released.
	scratchPool.Put(r.fs)
	s.rows[row] = lockstepConn{} // release references
	t := s.d.Cfg.StackLength
	if t <= 1 {
		// The profiles are the windows; their buffer is recycled by
		// RecycleStacked, not here — exactly StackedProfilesBatched.
		return ps.rows
	}
	wins := s.d.stackPooled(ps.rows, t)
	scratchPool.Put(ps)
	return wins
}

// Move relocates a live row during the scheduler's compaction: dst takes
// over src's connection and recurrence state. Call only after dst has
// been harvested (Windows) or was never loaded.
func (s *LockstepSession) Move(dst, src int) {
	if dst == src {
		return
	}
	s.ls.Move(dst, src)
	s.rows[dst] = s.rows[src]
	s.rows[src] = lockstepConn{}
}
