package backend

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"clap/internal/core"
	"clap/internal/features"
	"clap/internal/flow"
	"clap/internal/nn"
	"clap/internal/tcpstate"
)

// TestLeafBackendsImplementBatchScorer: every registered tag but the
// composite cascade is a leaf, and a leaf scores only through the batched
// pair.
func TestLeafBackendsImplementBatchScorer(t *testing.T) {
	for _, tag := range Tags() {
		b, err := New(tag)
		if err != nil {
			t.Fatal(err)
		}
		if _, composite := b.(*Cascade); composite {
			continue
		}
		if _, ok := b.(BatchScorer); !ok {
			t.Errorf("leaf backend %q (%T) does not implement BatchScorer", tag, b)
		}
	}
}

// TestLoadRejectsConfigNetworkMismatch: a CLAP model whose config
// disagrees with its networks used to load and then panic at its first
// score (a stack length of 4 over an autoencoder built for 3 asks the
// autoencoder for 460 inputs instead of 345). Load refuses it.
func TestLoadRejectsConfigNetworkMismatch(t *testing.T) {
	conns := genConns(8, 3)
	gru := func(in, classes int) *nn.GRUClassifier {
		return nn.NewGRUClassifier(in, 32, classes, rand.New(rand.NewSource(1)))
	}
	for name, mutate := range map[string]func(d *core.Detector){
		"stack length":   func(d *core.Detector) { d.Cfg.StackLength = 4 },
		"zero stack":     func(d *core.Detector) { d.Cfg.StackLength = 0 },
		"rnn hidden":     func(d *core.Detector) { d.Cfg.RNNHidden = 16 },
		"ae hidden":      func(d *core.Detector) { d.Cfg.AEHidden = []int{160, 80, 20} },
		"amplification":  func(d *core.Detector) { d.Cfg.UseAmplification = false },
		"rnn input":      func(d *core.Detector) { d.RNN = gru(features.NumRNN+1, tcpstate.NumClasses) },
		"rnn classes":    func(d *core.Detector) { d.RNN = gru(features.NumRNN, tcpstate.NumClasses+1) },
		"unchanged (ok)": func(*core.Detector) {},
	} {
		det := randomDetector(core.DefaultConfig(), conns, 2)
		mutate(det)
		var buf bytes.Buffer
		if err := Save(&buf, FromDetector(det)); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		_, err := Load(&buf)
		if ok := name == "unchanged (ok)"; ok != (err == nil) {
			t.Errorf("%s: Load error = %v", name, err)
		}
	}
}

// TestLoadCascadeAllocatesWhatItReads: a cascade payload declares each
// stage's length before the stage. A stream that declares the largest
// stage and then ends must fail with what it read, not allocate the
// declared 256 MB first.
func TestLoadCascadeAllocatesWhatItReads(t *testing.T) {
	var in bytes.Buffer
	in.Write(magic[:])
	in.Write([]byte{headerVersion, byte(len(TagCascade))})
	in.WriteString(TagCascade)
	binary.Write(&in, binary.BigEndian, uint8(cascadeFormatVersion))
	binary.Write(&in, binary.BigEndian, math.Float64bits(DefaultEscalateFPR))
	binary.Write(&in, binary.BigEndian, uint8(0))
	binary.Write(&in, binary.BigEndian, uint64(0))
	binary.Write(&in, binary.BigEndian, uint32(maxStageBlob))
	if in.Len() != 39 {
		t.Fatalf("test input is %d bytes, want 39", in.Len())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(&in)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a truncated cascade stage loaded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("loading a 39-byte stream allocated %d bytes", grew)
	}
}

// fuzzProbe is the fixed short connection every fuzzed model scores.
func fuzzProbe() *flow.Connection {
	c := genConns(1, 77)[0]
	n := min(4, c.Len())
	return &flow.Connection{Key: c.Key, Packets: c.Packets[:n], Dirs: c.Dirs[:n]}
}

// smallCLAP is a trained-shape detector with small networks, so fuzzed
// seeds stay a few kilobytes.
func smallCLAP(cfg core.Config, conns []*flow.Connection, seed int64) *core.Detector {
	cfg.RNNHidden = 4
	if cfg.StackLength > 1 {
		cfg.StackLength = 2
		cfg.AEHidden = []int{8}
	}
	return randomDetector(cfg, conns, seed)
}

// FuzzLoad: Load never panics, and any model it returns scores a fixed
// short connection through WindowErrors without panicking. Seeds are a
// tagged model of every family, a stream under the retired kitsune tag
// and a legacy untagged stream.
func FuzzLoad(f *testing.F) {
	conns := genConns(12, 3)
	clapB := &CLAP{tag: TagCLAP, Cfg: core.DefaultConfig(), Det: smallCLAP(core.DefaultConfig(), conns, 1)}
	b1 := &CLAP{tag: TagBaseline1, Cfg: core.Baseline1Config(), Det: smallCLAP(core.Baseline1Config(), conns, 2)}
	casc, err := NewCascade(b1, clapB, DefaultEscalateFPR)
	if err != nil {
		f.Fatal(err)
	}
	if err := casc.SetEscalation(0.5); err != nil {
		f.Fatal(err)
	}
	for _, b := range []Backend{clapB, b1, casc} {
		var buf bytes.Buffer
		if err := Save(&buf, b); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(kitsuneTagged(f))
	var legacy bytes.Buffer
	if err := clapB.Det.Save(&legacy); err != nil {
		f.Fatal(err)
	}
	f.Add(legacy.Bytes())

	probe := fuzzProbe()
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		b.Summarize(WindowErrors(b, probe))
	})
}
