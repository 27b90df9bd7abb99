package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"clap"
	"clap/internal/attacks"
	"clap/internal/backend"
	"clap/internal/flow"
	"clap/internal/packet"
	"clap/internal/trafficgen"
)

// sizes scales every input. The full sizes keep one pass of each workload
// between half a second and a second on the box the README names, so a 10 s
// run has ten or twenty passes to choose its undisturbed quartile from;
// smoke is the same code at about 1 %.
type sizes struct {
	trainConns, calConns int
	rnnEpochs, aeEpochs  int // stage 1 of the cascade trains half the RNN epochs
	fileClapConns        int
	fileCascadeConns     int
	serveConns           int
	shortConns           int
	traceMixedConns      int
	traceShortConns      int
	tracePasses          int
	traceServeSeconds    float64
	setupReps            int
}

var fullSizes = sizes{
	trainConns: 200, calConns: 400, rnnEpochs: 4, aeEpochs: 3,
	fileClapConns: 1000, fileCascadeConns: 6000, serveConns: 8000, shortConns: 30000,
	traceMixedConns: 1500, traceShortConns: 6000, tracePasses: 3, traceServeSeconds: 3,
	setupReps: 2,
}

var smokeSizes = sizes{
	trainConns: 40, calConns: 60, rnnEpochs: 1, aeEpochs: 1,
	fileClapConns: 60, fileCascadeConns: 150, serveConns: 100, shortConns: 400,
	traceMixedConns: 40, traceShortConns: 120, tracePasses: 1, traceServeSeconds: 0.2,
	setupReps: 1,
}

// Models are trained from fixed seeds: the detector under test is the same
// for every -seed, and the seed varies only the traffic it judges.
const (
	trainSeed = 1
	calSeed   = 2
)

const (
	targetFPR   = 0.01
	escalateFPR = 0.05
	attackShare = 10 // every attackShare-th mixed connection carries an attack
)

func genBenign(n int, seed int64) []*flow.Connection {
	cfg := trafficgen.DefaultConfig(n)
	cfg.Seed = seed
	return trafficgen.Generate(cfg)
}

// workload inputs on disk, as the child process finds them.
const (
	modelFile = "model"
	calibFile = "model.calib"
	pcapFile  = "corpus.pcap"
	truthFile = "truth.json"
)

// truth is what the generator knows about a corpus and the pcap no longer
// says.
type truth struct {
	Conns      int      `json:"conns"`
	Packets    int      `json:"packets"`
	AttackKeys []string `json:"attack_keys"` // hex of keyOf
}

// models are the detectors under test, each calibrated once at targetFPR so
// that timed runs never calibrate.
type models struct {
	cl    *backend.CLAP
	clCal *clap.Calibration
	ca    *backend.Cascade // nil unless asked for
	caCal *clap.Calibration
}

// pick returns the model a workload runs.
func (m *models) pick(workload string) (clap.Backend, *clap.Calibration) {
	if usesCascade(workload) {
		return m.ca, m.caCal
	}
	return m.cl, m.clCal
}

// trainModels fits the clap backend and, when asked, the cascade around it.
func trainModels(sz sizes, withCascade bool) (*models, error) {
	// Cascade.Train calls logf unconditionally, so nil panics; see README.
	nolog := func(string, ...any) {}
	benign := genBenign(sz.trainConns, trainSeed)
	calSrc := clap.Conns(genBenign(sz.calConns, calSeed)...)

	train := func(tag string, rnnEpochs int) (*backend.CLAP, error) {
		b, err := clap.NewBackend(tag)
		if err != nil {
			return nil, err
		}
		cb := b.(*backend.CLAP)
		cb.Cfg.RNNEpochs, cb.Cfg.AEEpochs = rnnEpochs, sz.aeEpochs
		if err := cb.Train(benign, nolog); err != nil {
			return nil, fmt.Errorf("training %s: %w", tag, err)
		}
		return cb, nil
	}
	m := &models{}
	var err error
	if m.cl, err = train(clap.BackendCLAP, sz.rnnEpochs); err != nil {
		return nil, err
	}
	if m.clCal, err = calibrate(m.cl, calSrc); err != nil {
		return nil, err
	}
	if !withCascade {
		return m, nil
	}
	s1, err := train(clap.BackendBaseline1, (sz.rnnEpochs+1)/2)
	if err != nil {
		return nil, err
	}
	if m.ca, err = clap.NewCascade(s1, m.cl, escalateFPR); err != nil {
		return nil, err
	}
	if m.caCal, err = calibrate(m.ca, calSrc); err != nil {
		return nil, err
	}
	return m, nil
}

func calibrate(b clap.Backend, src clap.Source) (*clap.Calibration, error) {
	p, err := clap.NewPipeline(clap.WithBackend(b))
	if err != nil {
		return nil, err
	}
	cal, err := p.Calibrate(targetFPR, src)
	if err != nil {
		return nil, fmt.Errorf("calibrating %s: %w", b.Tag(), err)
	}
	return cal, nil
}

// mixedCorpus generates n benign connections and injects an evasion attack
// into every attackShare-th one, rotating through the strategy corpus. A
// strategy that does not fit a connection passes its turn to the next, and
// so does one whose packets the codec refuses to decode (IP header length
// or TCP data offset below five words): written to a capture those packets
// reach no verdict, and the workloads are chosen so that nothing fails.
func mixedCorpus(n int, seed int64) ([]*flow.Connection, truth) {
	conns := genBenign(n, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	all := attacks.All()
	next := 0
	tr := truth{Conns: n}
	for i := 0; i < n; i += attackShare {
		for try := 0; try < len(all); try++ {
			st := all[next%len(all)]
			next++
			c := conns[i].Clone()
			if st.Apply(c, rng) && decodable(c) {
				c.AttackName = st.Name
				conns[i] = c
				k := keyOf(c)
				tr.AttackKeys = append(tr.AttackKeys, hex.EncodeToString(k[:]))
				break
			}
		}
	}
	tr.Packets = flow.Census(conns).Packets
	return conns, tr
}

// decodable reports whether every packet survives the trip through a pcap.
func decodable(c *flow.Connection) bool {
	for _, p := range c.Packets {
		raw, err := p.Encode(packet.SerializeOptions{})
		if err != nil {
			return false
		}
		if _, err := packet.Decode(raw); err != nil {
			return false
		}
	}
	return true
}

// shortCorpus generates n benign connections cut to their first 3 to 7
// packets: mice, scans and half-open flows.
func shortCorpus(n int, seed int64) ([]*flow.Connection, truth) {
	conns := genBenign(n, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, c := range conns {
		if k := 3 + rng.Intn(5); len(c.Packets) > k {
			c.Packets, c.Dirs = c.Packets[:k], c.Dirs[:k]
		}
	}
	return conns, truth{Conns: n, Packets: flow.Census(conns).Packets}
}

func pcapBytes(conns []*flow.Connection) ([]byte, error) {
	var buf bytes.Buffer
	if err := clap.WritePCAP(&buf, conns); err != nil {
		return nil, fmt.Errorf("writing pcap: %w", err)
	}
	return buf.Bytes(), nil
}

// corpusFor generates the corpus a workload runs on.
func corpusFor(workload string, sz sizes, seed int64) ([]*flow.Connection, truth) {
	switch workload {
	case "file-clap":
		return mixedCorpus(sz.fileClapConns, seed)
	case "file-cascade":
		return mixedCorpus(sz.fileCascadeConns, seed)
	case "live-short":
		return shortCorpus(sz.shortConns, seed)
	default:
		return mixedCorpus(sz.serveConns, seed)
	}
}

func usesCascade(workload string) bool {
	return workload == "file-cascade" || workload == "live-short"
}

// buildInputs is the benchmark's set-up for one workload: train and
// calibrate its model, generate its corpus from seed, and write both where
// the child process reads them.
func buildInputs(dir, workload string, sz sizes, seed int64) error {
	m, err := trainModels(sz, usesCascade(workload))
	if err != nil {
		return err
	}
	model, cal := m.pick(workload)
	if err := clap.SaveBackendFile(filepath.Join(dir, modelFile), model); err != nil {
		return err
	}
	if err := clap.SaveCalibrationFile(filepath.Join(dir, calibFile), cal); err != nil {
		return err
	}
	conns, tr := corpusFor(workload, sz, seed)
	raw, err := pcapBytes(conns)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, pcapFile), raw, 0o644); err != nil {
		return err
	}
	tj, err := json.Marshal(tr)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, truthFile), tj, 0o644)
}
