package backend

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"clap/internal/core"
	"clap/internal/features"
	"clap/internal/flow"
	"clap/internal/nn"
	"clap/internal/tcpstate"
	"clap/internal/trafficgen"
)

func genConns(n int, seed int64) []*flow.Connection {
	cfg := trafficgen.DefaultConfig(n)
	cfg.Seed = seed
	return trafficgen.Generate(cfg)
}

// randomDetector builds an untrained but fully-shaped detector under cfg —
// persistence round-trips don't need fitted weights, just deterministic
// ones, which keeps the all-ablation sweep fast.
func randomDetector(cfg core.Config, conns []*flow.Connection, seed int64) *core.Detector {
	rng := rand.New(rand.NewSource(seed))
	return &core.Detector{
		Cfg:     cfg,
		Profile: features.FitProfile(conns),
		RNN:     nn.NewGRUClassifier(features.NumRNN, cfg.RNNHidden, tcpstate.NumClasses, rng),
		AE:      nn.NewAutoencoder(cfg.AESizes(), rng),
	}
}

func TestRegistryHasAllThreeBackends(t *testing.T) {
	tags := Tags()
	if got := strings.Join(tags, ","); got != "baseline1,cascade,clap" {
		t.Fatalf("Tags() = %v, want exactly [baseline1 cascade clap]", tags)
	}
	for _, want := range []string{TagCLAP, TagBaseline1} {
		found := false
		for _, tag := range tags {
			if tag == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing %q (have %v)", want, tags)
		}
		b, err := New(want)
		if err != nil {
			t.Fatalf("New(%q): %v", want, err)
		}
		if b.Tag() != want {
			t.Errorf("New(%q).Tag() = %q", want, b.Tag())
		}
		if b.WindowSpan() < 1 {
			t.Errorf("backend %q window span %d < 1", want, b.WindowSpan())
		}
		if !strings.Contains(b.Describe(), "untrained") {
			t.Errorf("untrained %q should say so: %q", want, b.Describe())
		}
		if b.Trained() {
			t.Errorf("fresh %q backend reports itself trained", want)
		}
	}
}

func TestNewRejectsUnknownTag(t *testing.T) {
	if _, err := New("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("New(nope) error = %v, want mention of the tag", err)
	}
}

// sameSeries asserts bit-identity of two float series.
func sameSeries(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: value %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// roundTrip saves b through the tagged registry format and loads it back.
func roundTrip(t *testing.T, b Backend) Backend {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, b); err != nil {
		t.Fatalf("Save(%s): %v", b.Tag(), err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load(%s): %v", b.Tag(), err)
	}
	if got.Tag() != b.Tag() {
		t.Fatalf("round-trip changed tag %q -> %q", b.Tag(), got.Tag())
	}
	return got
}

// TestTaggedRoundTripAllAblations round-trips every Config ablation flag
// combination (gates × amplification × stacking) through the tagged
// header: the loaded detector must score bit-identically and keep its
// exact config.
func TestTaggedRoundTripAllAblations(t *testing.T) {
	conns := genConns(12, 3)
	probe := genConns(4, 9)
	seed := int64(0)
	for _, update := range []bool{true, false} {
		for _, reset := range []bool{true, false} {
			for _, amp := range []bool{true, false} {
				for _, stack := range []int{1, 3} {
					seed++
					cfg := core.DefaultConfig()
					cfg.UseUpdateGates, cfg.UseResetGates, cfg.UseAmplification = update, reset, amp
					cfg.StackLength = stack
					b := &CLAP{tag: TagCLAP, Cfg: cfg, Det: randomDetector(cfg, conns, seed)}
					got := roundTrip(t, b).(*CLAP)
					if !reflect.DeepEqual(got.Cfg, cfg) {
						t.Fatalf("ablation %v/%v/%v/%d: config changed: %+v", update, reset, amp, stack, got.Cfg)
					}
					for i, c := range probe {
						sameSeries(t, "window errors", WindowErrors(got, c), WindowErrors(b, c))
						if got.ScoreConn(c) != b.ScoreConn(c) {
							t.Fatalf("ablation %v/%v/%v/%d: conn %d score drifted", update, reset, amp, stack, i)
						}
					}
				}
			}
		}
	}
}

func TestBaseline1TagRoundTrip(t *testing.T) {
	conns := genConns(12, 5)
	cfg := core.Baseline1Config()
	b := &CLAP{tag: TagBaseline1, Cfg: cfg, Det: randomDetector(cfg, conns, 2)}
	got := roundTrip(t, b)
	if _, ok := got.(*CLAP); !ok {
		t.Fatalf("baseline1 loaded as %T", got)
	}
	probe := genConns(3, 11)[0]
	sameSeries(t, "baseline1 errors", WindowErrors(got, probe), WindowErrors(b, probe))
}

// TestKitsuneTagRetired: Kitsune is an evaluation baseline, not a
// registered backend, so a kitsune-tagged model stream is refused as an
// unknown backend, by name.
func TestKitsuneTagRetired(t *testing.T) {
	_, err := Load(bytes.NewReader(kitsuneTagged(t)))
	if err == nil || !strings.Contains(err.Error(), `unknown backend "kitsune"`) {
		t.Fatalf("Load of a kitsune-tagged stream: %v, want an unknown-backend error naming kitsune", err)
	}
	if _, err := New("kitsune"); err == nil {
		t.Fatal(`New("kitsune") succeeded`)
	}
}

// kitsuneTagged is a model stream under the retired kitsune tag: the
// tagged header around a CLAP payload.
func kitsuneTagged(t testing.TB) []byte {
	conns := genConns(12, 3)
	var payload bytes.Buffer
	if err := randomDetector(core.DefaultConfig(), conns, 1).Save(&payload); err != nil {
		t.Fatal(err)
	}
	hdr := append(magic[:], headerVersion, byte(len("kitsune")))
	return append(append(hdr, "kitsune"...), payload.Bytes()...)
}

// TestSummarizeMatchesScoreConn pins the Backend contract shared by every
// implementation: Summarize(WindowErrors(b, c)) == ScoreConn(c).
func TestSummarizeMatchesScoreConn(t *testing.T) {
	conns := genConns(12, 3)
	probe := genConns(5, 17)
	cfg := core.DefaultConfig()
	b1 := core.Baseline1Config()
	backends := []Backend{
		&CLAP{tag: TagCLAP, Cfg: cfg, Det: randomDetector(cfg, conns, 1)},
		&CLAP{tag: TagBaseline1, Cfg: b1, Det: randomDetector(b1, conns, 2)},
	}
	for _, b := range backends {
		for i, c := range probe {
			score, _ := b.Summarize(WindowErrors(b, c))
			if got := b.ScoreConn(c); got != score {
				t.Errorf("%s: conn %d ScoreConn %v != Summarize %v", b.Tag(), i, got, score)
			}
		}
		if score, peak := b.Summarize(nil); score != 0 || peak != -1 {
			t.Errorf("%s: empty series summarized to (%v, %d), want (0, -1)", b.Tag(), score, peak)
		}
	}
}

// TestLegacyUntaggedLoad keeps pre-registry model files working: a plain
// Detector.Save stream (no header) loads as the CLAP backend.
func TestLegacyUntaggedLoad(t *testing.T) {
	conns := genConns(12, 3)
	cfg := core.DefaultConfig()
	det := randomDetector(cfg, conns, 4)
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Load(&buf)
	if err != nil {
		t.Fatalf("legacy load: %v", err)
	}
	if b.Tag() != TagCLAP {
		t.Fatalf("legacy model loaded under tag %q", b.Tag())
	}
	probe := genConns(2, 21)[0]
	sameSeries(t, "legacy errors", WindowErrors(b, probe), det.WindowErrors(probe))
}

func TestLoadRejectsUnknownTag(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(headerVersion)
	buf.WriteByte(byte(len("mystery")))
	buf.WriteString("mystery")
	_, err := Load(&buf)
	if err == nil || !strings.Contains(err.Error(), "mystery") {
		t.Fatalf("unknown-tag load error = %v, want the tag named", err)
	}
}

func TestLoadRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(99)
	buf.WriteByte(4)
	buf.WriteString(TagCLAP)
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad-version load error = %v", err)
	}
}

func TestLoadRejectsTruncatedHeader(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(headerVersion) // tag length byte missing
	if _, err := Load(&buf); err == nil {
		t.Fatal("truncated header should fail to load")
	}
	// Corrupt payload after a valid header must surface the decoder error.
	var buf2 bytes.Buffer
	buf2.Write(magic[:])
	buf2.WriteByte(headerVersion)
	buf2.WriteByte(byte(len(TagCLAP)))
	buf2.WriteString(TagCLAP)
	buf2.WriteString("not a gob stream")
	if _, err := Load(&buf2); err == nil {
		t.Fatal("corrupt payload should fail to load")
	}
}

func TestLoadGarbageFallsBackWithError(t *testing.T) {
	// Garbage without the magic goes down the legacy path and must fail
	// loudly, not panic.
	if _, err := Load(strings.NewReader("complete nonsense, definitely not a model")); err == nil {
		t.Fatal("garbage should not load")
	}
	if _, err := Load(strings.NewReader("x")); err == nil {
		t.Fatal("too-short garbage should not load")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream should not load")
	}
}

func TestSaveRejectsUntrained(t *testing.T) {
	for _, tag := range []string{TagCLAP, TagBaseline1} {
		b, err := New(tag)
		if err != nil {
			t.Fatal(err)
		}
		if err := Save(io.Discard, b); err == nil {
			t.Errorf("saving untrained %q should fail", tag)
		}
	}
}

func TestFromDetectorWraps(t *testing.T) {
	conns := genConns(12, 3)
	cfg := core.Baseline1Config()
	det := randomDetector(cfg, conns, 6)
	b := FromDetector(det)
	if b.Detector() != det {
		t.Fatal("FromDetector must wrap the given detector")
	}
	if b.WindowSpan() != cfg.StackLength {
		t.Fatalf("window span = %d, want %d", b.WindowSpan(), cfg.StackLength)
	}
	probe := genConns(2, 23)[0]
	if b.ScoreConn(probe) != det.Score(probe).Adversarial {
		t.Fatal("wrapped backend must score through the detector")
	}
}
