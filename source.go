package clap

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"clap/internal/attacks"
	"clap/internal/flow"
	"clap/internal/pcapio"
)

// Source produces the connection corpus a Pipeline scores: a pcap file or
// stream, synthetic benign traffic, an attack-injected corpus, or an
// in-memory slice. Implementations assemble through the supplied engine so
// large captures use sharded parallel assembly; eng may be nil, in which
// case a machine-sized engine is used.
type Source interface {
	// Connections returns the assembled corpus in capture order. skipped
	// counts records the source could not decode (undecodable or non-TCP
	// pcap records); surface it — a silently truncated capture is
	// invisible otherwise.
	Connections(eng *Engine) (conns []*Connection, skipped int, err error)
}

func engineOrDefault(eng *Engine) *Engine {
	if eng == nil {
		return NewEngine(0)
	}
	return eng
}

// PCAPFile reads a capture file from disk.
func PCAPFile(path string) Source { return pcapFileSource{path: path} }

type pcapFileSource struct{ path string }

func (s pcapFileSource) Connections(eng *Engine) ([]*Connection, int, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	pkts, skipped, err := pcapio.ReadPackets(f)
	if err != nil {
		return nil, skipped, fmt.Errorf("reading %s: %w", s.path, err)
	}
	return engineOrDefault(eng).Assemble(pkts), skipped, nil
}

// PCAPStream reads a capture from an io.Reader (a socket, a pipe from a
// live capture process, a decompressor).
func PCAPStream(r io.Reader) Source { return pcapStreamSource{r: r} }

type pcapStreamSource struct{ r io.Reader }

func (s pcapStreamSource) Connections(eng *Engine) ([]*Connection, int, error) {
	pkts, skipped, err := pcapio.ReadPackets(s.r)
	if err != nil {
		return nil, skipped, err
	}
	return engineOrDefault(eng).Assemble(pkts), skipped, nil
}

// TrafficGen synthesizes n benign backbone-style connections with a
// deterministic seed — the stand-in for a MAWI capture (DESIGN.md §1).
// A negative n is an error at Connections.
func TrafficGen(n int, seed int64) Source { return trafficGenSource{n: n, seed: seed} }

type trafficGenSource struct {
	n    int
	seed int64
}

func (s trafficGenSource) Connections(*Engine) ([]*Connection, int, error) {
	if s.n < 0 {
		return nil, 0, fmt.Errorf("traffic generator: %d connections: must be >= 0", s.n)
	}
	return GenerateBenign(s.n, s.seed), 0, nil
}

// Conns serves an in-memory corpus as-is.
func Conns(conns ...*Connection) Source { return connsSource(conns) }

type connsSource []*Connection

func (s connsSource) Connections(*Engine) ([]*Connection, int, error) { return s, 0, nil }

// AttackCorpus wraps a base source and injects one evasion strategy into
// the given fraction of eligible connections (in place, marking them
// adversarial) — the attack-injected corpus the evaluation scores. A
// fraction outside [0, 1], or NaN, is an error at Connections.
func AttackCorpus(base Source, strategy string, fraction float64, seed int64) Source {
	return attackSource{base: base, strategy: strategy, fraction: fraction, seed: seed}
}

type attackSource struct {
	base     Source
	strategy string
	fraction float64
	seed     int64
}

func (s attackSource) Connections(eng *Engine) ([]*Connection, int, error) {
	if !(s.fraction >= 0 && s.fraction <= 1) {
		return nil, 0, fmt.Errorf("attack fraction %v: must be in [0, 1]", s.fraction)
	}
	strategy, ok := attacks.ByName(s.strategy)
	if !ok {
		return nil, 0, fmt.Errorf("unknown strategy %q", s.strategy)
	}
	conns, skipped, err := s.base.Connections(eng)
	if err != nil {
		return nil, skipped, err
	}
	rng := rand.New(rand.NewSource(s.seed))
	for _, c := range conns {
		if rng.Float64() > s.fraction {
			continue
		}
		if strategy.Apply(c, rng) {
			c.AttackName = strategy.Name
		}
	}
	return conns, skipped, nil
}

// WritePCAPFile writes connections to path as a classic pcap capture;
// raw selects LINKTYPE_RAW framing instead of Ethernet.
func WritePCAPFile(path string, conns []*Connection, raw bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	linkType := uint32(pcapio.LinkTypeEthernet)
	if raw {
		linkType = pcapio.LinkTypeRaw
	}
	w := pcapio.NewWriter(f, linkType)
	for _, p := range flow.Flatten(conns) {
		if err := w.WritePacket(p); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
