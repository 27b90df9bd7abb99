package calib

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Calibration is one frozen calibration outcome: the operating threshold
// derived at a target FPR, plus the benign-score reference distribution
// it was derived from (the sketch a drift Monitor compares live traffic
// against). Saved alongside the tagged model file, it lets a restarted
// daemon resume with the same reference distribution instead of starting
// drift monitoring blind.
type Calibration struct {
	// Tag is the registry tag of the backend the scores came from; a
	// snapshot is meaningless against a different backend family's score
	// scale, so loaders check it.
	Tag string
	// FPR is the calibration target and Threshold the derived operating
	// threshold (finite and > 0).
	FPR       float64
	Threshold float64
	// Conns and Skipped report the calibration corpus.
	Conns   int
	Skipped int
	// Ref is the benign-score reference distribution (never nil after
	// Calibrate/Load).
	Ref *Sketch
}

// Validate checks the snapshot's invariants — loaders and options call it
// so a corrupt or hand-edited snapshot fails loudly instead of installing
// a nonsense threshold.
func (c *Calibration) Validate() error {
	if c == nil {
		return fmt.Errorf("calib: nil calibration")
	}
	if c.Tag == "" {
		return fmt.Errorf("calib: calibration carries no backend tag")
	}
	if !(c.FPR > 0 && c.FPR < 1) {
		return fmt.Errorf("calib: calibration target FPR %v outside (0, 1)", c.FPR)
	}
	// A calibration exists to set a threshold, so it must find one: 0 is
	// how a pair says "none", and installing it would silently flag
	// nothing.
	if math.IsNaN(c.Threshold) || math.IsInf(c.Threshold, 0) || c.Threshold <= 0 {
		return fmt.Errorf("calib: calibration threshold %v must be finite and > 0", c.Threshold)
	}
	if c.Ref == nil || c.Ref.Count() == 0 {
		return fmt.Errorf("calib: calibration carries no reference distribution")
	}
	return nil
}

// The snapshot file format: magic, version, the length-prefixed tag,
// target/threshold/corpus numbers, then the embedded sketch. Deterministic
// byte-for-byte for identical state, like the sketch encoding.
var calMagic = [8]byte{'C', 'L', 'A', 'P', 'C', 'A', 'L', '1'}

// Save writes the calibration snapshot to w.
func (c *Calibration) Save(w io.Writer) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if len(c.Tag) > 255 {
		return fmt.Errorf("calib: tag %q not encodable", c.Tag)
	}
	sk, err := c.Ref.MarshalBinary()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.Write(calMagic[:])
	wr := func(v any) { binary.Write(&buf, binary.BigEndian, v) }
	wr(uint8(len(c.Tag)))
	buf.WriteString(c.Tag)
	wr(math.Float64bits(c.FPR))
	wr(math.Float64bits(c.Threshold))
	wr(uint64(c.Conns))
	wr(uint64(c.Skipped))
	wr(uint32(len(sk)))
	buf.Write(sk)
	_, err = w.Write(buf.Bytes())
	return err
}

// Load reads a snapshot written by Save.
func Load(r io.Reader) (*Calibration, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || magic != calMagic {
		return nil, fmt.Errorf("calib: not a calibration snapshot")
	}
	rd := func(v any) error { return binary.Read(r, binary.BigEndian, v) }
	var tagLen uint8
	if err := rd(&tagLen); err != nil {
		return nil, fmt.Errorf("calib: truncated snapshot: %w", err)
	}
	tag := make([]byte, tagLen)
	if _, err := io.ReadFull(r, tag); err != nil {
		return nil, fmt.Errorf("calib: truncated snapshot tag: %w", err)
	}
	c := &Calibration{Tag: string(tag)}
	var fprBits, thBits, conns, skipped uint64
	for _, v := range []*uint64{&fprBits, &thBits, &conns, &skipped} {
		if err := rd(v); err != nil {
			return nil, fmt.Errorf("calib: truncated snapshot: %w", err)
		}
	}
	c.FPR = math.Float64frombits(fprBits)
	c.Threshold = math.Float64frombits(thBits)
	c.Conns, c.Skipped = int(conns), int(skipped)
	var skLen uint32
	if err := rd(&skLen); err != nil {
		return nil, fmt.Errorf("calib: truncated snapshot: %w", err)
	}
	const maxSketchBytes = 1 << 24 // a 2048-bucket sketch is ~25KB; anything near this is corrupt
	if skLen > maxSketchBytes {
		return nil, fmt.Errorf("calib: snapshot sketch of %d bytes exceeds the %d limit", skLen, maxSketchBytes)
	}
	// Read the sketch as it arrives: a declared length is not an
	// allocation budget.
	skBytes, err := io.ReadAll(io.LimitReader(r, int64(skLen)))
	if err != nil {
		return nil, fmt.Errorf("calib: reading snapshot sketch: %w", err)
	}
	if len(skBytes) != int(skLen) {
		return nil, fmt.Errorf("calib: truncated snapshot sketch: %d of %d bytes", len(skBytes), skLen)
	}
	c.Ref = NewSketch(0, 0)
	if err := c.Ref.UnmarshalBinary(skBytes); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
