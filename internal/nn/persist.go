package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Model persistence uses encoding/gob over plain snapshot structs so saved
// detectors survive refactors of the live types.

type tensorSnap struct {
	R, C int
	W    []float64
}

func snap(t *Tensor) tensorSnap { return tensorSnap{R: t.R, C: t.C, W: append([]float64(nil), t.W...)} }

// restore rebuilds a tensor from its snapshot, validating the declared
// shape against the expected one AND against the payload length. A
// snapshot whose dims were corrupted (or hand-edited) used to load
// successfully here and then panic deep inside the first MulVec at
// inference time; now the load reports what is wrong with which tensor.
func restore(s tensorSnap, name string, wantR, wantC int) (*Tensor, error) {
	if s.R != wantR || s.C != wantC {
		return nil, fmt.Errorf("nn: tensor %s has shape (%d,%d), want (%d,%d)", name, s.R, s.C, wantR, wantC)
	}
	if len(s.W) != s.R*s.C {
		return nil, fmt.Errorf("nn: tensor %s carries %d weights for shape (%d,%d)", name, len(s.W), s.R, s.C)
	}
	// The tensor owns the decoded weights outright: nothing else holds the
	// snapshot, and cap == len keeps an append from reaching past them.
	n := s.R * s.C
	return &Tensor{R: s.R, C: s.C, W: s.W[:n:n], G: make([]float64, n)}, nil
}

type gruSnap struct {
	In, Hidden, Classes int
	Tensors             []tensorSnap // order matches Params()
}

// SaveGRU writes the classifier to w.
func SaveGRU(w io.Writer, m *GRUClassifier) error {
	s := gruSnap{In: m.In, Hidden: m.Hidden, Classes: m.Classes}
	for _, p := range m.Params() {
		s.Tensors = append(s.Tensors, snap(p))
	}
	return gob.NewEncoder(w).Encode(s)
}

// LoadGRU reads a classifier written by SaveGRU, validating every
// restored tensor's dimensions against the snapshot's In/Hidden/Classes
// so a dimension-corrupted model fails at load, not at first inference.
func LoadGRU(r io.Reader) (*GRUClassifier, error) {
	var s gruSnap
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("nn: loading GRU: %w", err)
	}
	if s.In < 1 || s.Hidden < 1 || s.Classes < 1 {
		return nil, fmt.Errorf("nn: GRU snapshot has dims in=%d hidden=%d classes=%d", s.In, s.Hidden, s.Classes)
	}
	m := &GRUClassifier{In: s.In, Hidden: s.Hidden, Classes: s.Classes}
	// Order matches Params(); shapes follow the gate equations: W* are
	// Hidden×In, U* Hidden×Hidden, B* Hidden×1, and the softmax head is
	// Classes×Hidden with a Classes×1 bias.
	slots := []struct {
		p    **Tensor
		name string
		r, c int
	}{
		{&m.Wz, "Wz", s.Hidden, s.In}, {&m.Uz, "Uz", s.Hidden, s.Hidden}, {&m.Bz, "Bz", s.Hidden, 1},
		{&m.Wr, "Wr", s.Hidden, s.In}, {&m.Ur, "Ur", s.Hidden, s.Hidden}, {&m.Br, "Br", s.Hidden, 1},
		{&m.Wh, "Wh", s.Hidden, s.In}, {&m.Uh, "Uh", s.Hidden, s.Hidden}, {&m.Bh, "Bh", s.Hidden, 1},
		{&m.Wo, "Wo", s.Classes, s.Hidden}, {&m.Bo, "Bo", s.Classes, 1},
	}
	if len(s.Tensors) != len(slots) {
		return nil, fmt.Errorf("nn: GRU snapshot has %d tensors, want %d", len(s.Tensors), len(slots))
	}
	for i, sl := range slots {
		t, err := restore(s.Tensors[i], sl.name, sl.r, sl.c)
		if err != nil {
			return nil, fmt.Errorf("nn: loading GRU: %w", err)
		}
		*sl.p = t
	}
	return m, nil
}

type aeSnap struct {
	Sizes   []int
	Tensors []tensorSnap
}

// SaveAutoencoder writes the autoencoder to w.
func SaveAutoencoder(w io.Writer, ae *Autoencoder) error {
	s := aeSnap{Sizes: ae.Sizes}
	for _, p := range ae.Params() {
		s.Tensors = append(s.Tensors, snap(p))
	}
	return gob.NewEncoder(w).Encode(s)
}

// LoadAutoencoder reads an autoencoder written by SaveAutoencoder,
// validating the layer chain (at least input+output, the output as wide
// as the input it reconstructs) and every restored tensor's dimensions
// against the snapshot's Sizes.
func LoadAutoencoder(r io.Reader) (*Autoencoder, error) {
	var s aeSnap
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("nn: loading autoencoder: %w", err)
	}
	if len(s.Sizes) < 2 {
		return nil, fmt.Errorf("nn: autoencoder snapshot declares %d layer sizes, want at least 2", len(s.Sizes))
	}
	if in, out := s.Sizes[0], s.Sizes[len(s.Sizes)-1]; in != out {
		return nil, fmt.Errorf("nn: autoencoder snapshot reconstructs %d values from %d inputs", out, in)
	}
	for i, sz := range s.Sizes {
		if sz < 1 {
			return nil, fmt.Errorf("nn: autoencoder snapshot layer %d has size %d", i, sz)
		}
	}
	ae := &Autoencoder{Sizes: s.Sizes}
	if len(s.Tensors) != 2*(len(s.Sizes)-1) {
		return nil, fmt.Errorf("nn: autoencoder snapshot has %d tensors, want %d", len(s.Tensors), 2*(len(s.Sizes)-1))
	}
	for i := 0; i+1 < len(s.Sizes); i++ {
		w, err := restore(s.Tensors[2*i], fmt.Sprintf("layer %d weights", i), s.Sizes[i+1], s.Sizes[i])
		if err != nil {
			return nil, fmt.Errorf("nn: loading autoencoder: %w", err)
		}
		b, err := restore(s.Tensors[2*i+1], fmt.Sprintf("layer %d bias", i), s.Sizes[i+1], 1)
		if err != nil {
			return nil, fmt.Errorf("nn: loading autoencoder: %w", err)
		}
		ae.Layers = append(ae.Layers, &Dense{W: w, B: b, Tanh: i+2 < len(s.Sizes)})
	}
	return ae, nil
}
