package calib_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"

	"clap"
	"clap/internal/calib"
)

// snapshot frames a calibration file around raw sketch bytes the way
// Calibration.Save does, so a test can declare what the bytes do not hold.
func snapshot(tag string, sketch []byte, skLen uint32) []byte {
	var buf bytes.Buffer
	buf.WriteString("CLAPCAL1")
	buf.WriteByte(byte(len(tag)))
	buf.WriteString(tag)
	for _, v := range []uint64{math.Float64bits(0.01), math.Float64bits(0.5), 40, 0} {
		binary.Write(&buf, binary.BigEndian, v)
	}
	binary.Write(&buf, binary.BigEndian, skLen)
	buf.Write(sketch)
	return buf.Bytes()
}

// sketchHeader is a serialized sketch up to its bucket count: magic, alpha,
// bucket cap, zero/dropped/total counters and the declared bucket count,
// with no buckets after it.
func sketchHeader(maxBuckets, n uint32) []byte {
	var buf bytes.Buffer
	buf.WriteString("CLAPSKT1")
	binary.Write(&buf, binary.BigEndian, math.Float64bits(0.01))
	binary.Write(&buf, binary.BigEndian, maxBuckets)
	binary.Write(&buf, binary.BigEndian, [3]uint64{0, 0, 1})
	binary.Write(&buf, binary.BigEndian, n)
	return buf.Bytes()
}

// TestLoadAllocatesWhatSnapshotHolds: a snapshot's declared sizes are not
// an allocation budget. A few dozen bytes that declare a million buckets
// or a 16 MiB sketch fail without allocating what they declare.
func TestLoadAllocatesWhatSnapshotHolds(t *testing.T) {
	const budget = 1 << 20
	overCap, overBytes := sketchHeader(2048, 1<<20), sketchHeader(math.MaxUint32, 1<<20)
	for name, data := range map[string][]byte{
		"buckets over cap":       snapshot("clap", overCap, uint32(len(overCap))),
		"buckets over bytes":     snapshot("clap", overBytes, uint32(len(overBytes))),
		"16 MiB declared sketch": snapshot("clap", nil, 1<<24),
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := calib.Load(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: %d-byte snapshot loaded", name, len(data))
		}
		t.Logf("%s: %d bytes: %v", name, len(data), err)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Errorf("%s: loading %d bytes allocated %d bytes, budget %d (%v)", name, len(data), got, budget, err)
		}
	}
}

// FuzzLoadCalibration: Load never panics, and any snapshot it returns
// validates, saves, and reloads to an equal snapshot. Seeds are snapshots
// Pipeline.Calibrate derives on a tiny corpus and one whose sketch is
// empty.
func FuzzLoadCalibration(f *testing.F) {
	b, err := clap.NewBackend(clap.BackendBaseline1)
	if err != nil {
		f.Fatal(err)
	}
	cb := b.(*clap.CLAPBackend)
	cb.Cfg.RNNEpochs, cb.Cfg.AEEpochs = 1, 1
	if err := b.Train(clap.GenerateBenign(20, 1), func(string, ...any) {}); err != nil {
		f.Fatal(err)
	}
	p, err := clap.NewPipeline(clap.WithBackend(b), clap.WithWorkers(1))
	if err != nil {
		f.Fatal(err)
	}
	for _, fpr := range []float64{0.01, 0.25} {
		cal, err := p.Calibrate(fpr, clap.TrafficGen(30, 2))
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cal.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	empty, err := calib.NewSketch(0, 0).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snapshot("baseline1", empty, uint32(len(empty))))

	f.Fuzz(func(t *testing.T, data []byte) {
		cal, err := calib.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := cal.Validate(); err != nil {
			t.Fatalf("loaded snapshot does not validate: %v", err)
		}
		var saved bytes.Buffer
		if err := cal.Save(&saved); err != nil {
			t.Fatalf("loaded snapshot does not save: %v", err)
		}
		again, err := calib.Load(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("re-saved snapshot does not load: %v", err)
		}
		if !reflect.DeepEqual(again, cal) {
			t.Fatalf("reload differs:\n%+v\n%+v", again, cal)
		}
	})
}
