package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"clap/internal/features"
	"clap/internal/nn"
	"clap/internal/tcpstate"
)

// The detector persists as a single gob stream: config, feature profile,
// then the two models framed as byte blobs. The blob framing matters: a
// gob decoder may read ahead on readers without io.ByteReader (e.g.
// *os.File), so the models cannot safely follow as separate gob streams on
// the same reader.

// Save writes the full detector to w.
func (d *Detector) Save(w io.Writer) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(d.Cfg); err != nil {
		return fmt.Errorf("core: saving config: %w", err)
	}
	if err := enc.Encode(d.Profile); err != nil {
		return fmt.Errorf("core: saving feature profile: %w", err)
	}
	var rnnBuf, aeBuf bytes.Buffer
	if err := nn.SaveGRU(&rnnBuf, d.RNN); err != nil {
		return fmt.Errorf("core: saving RNN: %w", err)
	}
	if err := nn.SaveAutoencoder(&aeBuf, d.AE); err != nil {
		return fmt.Errorf("core: saving autoencoder: %w", err)
	}
	if err := enc.Encode(rnnBuf.Bytes()); err != nil {
		return fmt.Errorf("core: framing RNN: %w", err)
	}
	if err := enc.Encode(aeBuf.Bytes()); err != nil {
		return fmt.Errorf("core: framing autoencoder: %w", err)
	}
	return nil
}

// Load reads a detector written by Save.
func Load(r io.Reader) (*Detector, error) {
	d := &Detector{}
	dec := gob.NewDecoder(r)
	if err := dec.Decode(&d.Cfg); err != nil {
		return nil, fmt.Errorf("core: loading config: %w", err)
	}
	var prof features.Profile
	if err := dec.Decode(&prof); err != nil {
		return nil, fmt.Errorf("core: loading feature profile: %w", err)
	}
	d.Profile = &prof
	var rnnBlob, aeBlob []byte
	if err := dec.Decode(&rnnBlob); err != nil {
		return nil, fmt.Errorf("core: reading RNN frame: %w", err)
	}
	if err := dec.Decode(&aeBlob); err != nil {
		return nil, fmt.Errorf("core: reading autoencoder frame: %w", err)
	}
	var err error
	if d.RNN, err = nn.LoadGRU(bytes.NewReader(rnnBlob)); err != nil {
		return nil, err
	}
	if d.AE, err = nn.LoadAutoencoder(bytes.NewReader(aeBlob)); err != nil {
		return nil, err
	}
	if err := d.checkShapes(); err != nil {
		return nil, err
	}
	return d, nil
}

// checkShapes rejects a model whose config disagrees with its networks.
// Such a file decodes fine but panics at its first score: the GRU's gate
// blocks and the stacking length size every window, and the autoencoder
// must take exactly that width. The stacking length is bounded by the
// autoencoder's input (one value per packet at least), which also keeps
// the width computation from overflowing.
func (d *Detector) checkShapes() error {
	c := d.Cfg
	switch {
	case d.RNN.In != features.NumRNN || d.RNN.Classes != tcpstate.NumClasses:
		return fmt.Errorf("core: RNN maps %d inputs to %d classes, want %d to %d",
			d.RNN.In, d.RNN.Classes, features.NumRNN, tcpstate.NumClasses)
	case d.RNN.Hidden != c.RNNHidden:
		return fmt.Errorf("core: RNN has %d hidden units but the config says %d", d.RNN.Hidden, c.RNNHidden)
	case c.StackLength < 1 || c.StackLength > d.AE.InputSize():
		return fmt.Errorf("core: config stack length %d does not fit an autoencoder input of %d", c.StackLength, d.AE.InputSize())
	case !slices.Equal(d.AE.Sizes, c.AESizes()):
		return fmt.Errorf("core: autoencoder layers %v, but the config needs %v", d.AE.Sizes, c.AESizes())
	}
	return nil
}

// SaveFile persists the detector to path, creating parent directories.
func (d *Detector) SaveFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a detector from path.
func LoadFile(path string) (*Detector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
