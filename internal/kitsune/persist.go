package kitsune

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"clap/internal/nn"
)

// A trained (frozen) Kitsune persists as one gob snapshot: the config, the
// learned feature map, the frozen normalisation bounds, and the ensemble
// and output autoencoders framed as byte blobs (the same framing rationale
// as core's persistence: a gob decoder may read ahead on the underlying
// reader). Extractor statistics are deliberately not persisted: Windows
// builds a fresh statistics context per connection.

type kitSnap struct {
	Cfg      Config
	Clusters [][]int
	Min, Max []float64
	OutMin   []float64
	OutMax   []float64
	Ensemble [][]byte
	Output   []byte
}

// Save writes the trained model to w. It fails on an untrained instance:
// the feature map and ensemble only exist after Train.
func (k *Kitsune) Save(w io.Writer) error {
	if len(k.ensemble) == 0 || k.output == nil {
		return fmt.Errorf("kitsune: saving untrained model")
	}
	s := kitSnap{
		Cfg:      k.cfg,
		Clusters: k.clusters,
		Min:      k.min,
		Max:      k.max,
		OutMin:   k.outMin,
		OutMax:   k.outMax,
	}
	for _, ae := range k.ensemble {
		var buf bytes.Buffer
		if err := nn.SaveAutoencoder(&buf, ae); err != nil {
			return fmt.Errorf("kitsune: saving ensemble member: %w", err)
		}
		s.Ensemble = append(s.Ensemble, buf.Bytes())
	}
	var buf bytes.Buffer
	if err := nn.SaveAutoencoder(&buf, k.output); err != nil {
		return fmt.Errorf("kitsune: saving output layer: %w", err)
	}
	s.Output = buf.Bytes()
	if err := gob.NewEncoder(w).Encode(s); err != nil {
		return fmt.Errorf("kitsune: encoding snapshot: %w", err)
	}
	return nil
}

// Load reads a model written by Save. The result is frozen (execute phase
// only); further Train calls are not supported.
func Load(r io.Reader) (*Kitsune, error) {
	var s kitSnap
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("kitsune: decoding snapshot: %w", err)
	}
	if len(s.Clusters) != len(s.Ensemble) {
		return nil, fmt.Errorf("kitsune: snapshot has %d clusters but %d ensemble members",
			len(s.Clusters), len(s.Ensemble))
	}
	k := New(s.Cfg)
	k.clusters = s.Clusters
	k.min, k.max = s.Min, s.Max
	k.outMin, k.outMax = s.OutMin, s.OutMax
	for i, blob := range s.Ensemble {
		ae, err := nn.LoadAutoencoder(bytes.NewReader(blob))
		if err != nil {
			return nil, fmt.Errorf("kitsune: loading ensemble member %d: %w", i, err)
		}
		k.ensemble = append(k.ensemble, ae)
	}
	out, err := nn.LoadAutoencoder(bytes.NewReader(s.Output))
	if err != nil {
		return nil, fmt.Errorf("kitsune: loading output layer: %w", err)
	}
	k.output = out
	k.frozen = true
	if err := k.checkShapes(); err != nil {
		return nil, err
	}
	return k, nil
}

// checkShapes rejects a snapshot whose parts disagree with each other or
// with the AfterImage vector: such a model decodes fine and then panics
// at its first score.
func (k *Kitsune) checkShapes() error {
	m := len(k.ensemble)
	switch {
	case len(k.cfg.Lambdas) > len(DefaultLambdas):
		return fmt.Errorf("kitsune: %d decay horizons overflow the %d-feature vector", len(k.cfg.Lambdas), NumFeatures)
	case len(k.min) != NumFeatures || len(k.max) != NumFeatures:
		return fmt.Errorf("kitsune: normalisation bounds for %d and %d features, want %d", len(k.min), len(k.max), NumFeatures)
	case len(k.outMin) != m || len(k.outMax) != m || k.output.InputSize() != m:
		return fmt.Errorf("kitsune: output layer takes %d inputs with %d and %d bounds, want %d",
			k.output.InputSize(), len(k.outMin), len(k.outMax), m)
	}
	for i, cl := range k.clusters {
		if k.ensemble[i].InputSize() != len(cl) {
			return fmt.Errorf("kitsune: ensemble member %d takes %d inputs for a %d-feature cluster", i, k.ensemble[i].InputSize(), len(cl))
		}
		for _, f := range cl {
			if f < 0 || f >= NumFeatures {
				return fmt.Errorf("kitsune: cluster %d names feature %d of %d", i, f, NumFeatures)
			}
		}
	}
	return nil
}

// Config returns the configuration the model was built with.
func (k *Kitsune) Config() Config { return k.cfg }
