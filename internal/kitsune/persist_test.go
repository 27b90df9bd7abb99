package kitsune

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"clap/internal/attacks"
	"clap/internal/flow"
	"clap/internal/trafficgen"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FMWindow = 300
	k := New(cfg)
	k.Train(trainStream(60, 3))

	var buf bytes.Buffer
	if err := k.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.EnsembleSize() != k.EnsembleSize() {
		t.Fatalf("ensemble size %d != %d", got.EnsembleSize(), k.EnsembleSize())
	}
	if got.Config().FMWindow != cfg.FMWindow {
		t.Errorf("config not preserved: %+v", got.Config())
	}

	// Scores must be bit-identical: same clusters, weights and frozen
	// normalisation bounds.
	gen := trafficgen.DefaultConfig(6)
	gen.Seed = 11
	for i, c := range trafficgen.Generate(gen) {
		want := connScore(k, c)
		if s := connScore(got, c); s != want {
			t.Fatalf("conn %d: loaded score %v != original %v", i, s, want)
		}
		we, ge := connErrors(k, c), connErrors(got, c)
		for j := range we {
			if we[j] != ge[j] {
				t.Fatalf("conn %d packet %d: error series diverged", i, j)
			}
		}
	}
}

func TestSaveRejectsUntrained(t *testing.T) {
	var buf bytes.Buffer
	if err := New(DefaultConfig()).Save(&buf); err == nil || !strings.Contains(err.Error(), "untrained") {
		t.Fatalf("untrained save error = %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("junk")); err == nil {
		t.Fatal("garbage should not load")
	}
}

// TestScoreWindowsMatchesPacketLoop: the batched pair's series equals the
// per-packet execute loop bit for bit, on benign connections, on attack
// connections and on an empty one, whole and split into batches, and each
// window is one float per ensemble member.
func TestScoreWindowsMatchesPacketLoop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FMWindow = 300
	k := New(cfg)
	k.Train(trainStream(60, 5))
	gen := trafficgen.DefaultConfig(8)
	gen.Seed = 23
	conns := trafficgen.Generate(gen)
	rng := rand.New(rand.NewSource(7))
	for _, st := range attacks.All()[:20] {
		for _, c := range conns {
			if cc := c.Clone(); st.Apply(cc, rng) {
				conns = append(conns, cc)
				break
			}
		}
	}
	conns = append(conns, &flow.Connection{})
	attacked := 0
	for i, c := range conns {
		if c.IsAdversarial() {
			attacked++
		}
		want := oracleErrors(k, c)
		wins := k.Windows(c)
		if len(wins) != c.Len() {
			t.Fatalf("conn %d: %d windows for %d packets", i, len(wins), c.Len())
		}
		// A window is the ensemble's error vector, not the 100-feature
		// AfterImage vector: what a long connection keeps resident.
		for j, w := range wins {
			if len(w) != k.EnsembleSize() {
				t.Fatalf("conn %d window %d: %d wide, want the ensemble's %d", i, j, len(w), k.EnsembleSize())
			}
		}
		half := len(wins) / 2
		split := append(k.ScoreWindows(wins[:half]), k.ScoreWindows(wins[half:])...)
		for name, got := range map[string][]float64{"whole": k.ScoreWindows(wins), "split": split} {
			if len(got) != len(want) {
				t.Fatalf("conn %d %s: %d errors, want %d", i, name, len(got), len(want))
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("conn %d %s packet %d: %v, want %v", i, name, j, got[j], want[j])
				}
			}
		}
	}
	if attacked == 0 {
		t.Fatal("no attack connection covered")
	}
}
