package clap

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"clap/internal/afpacket"
	"clap/internal/attacks"
	"clap/internal/flow"
	"clap/internal/packet"
	"clap/internal/pcapio"
)

// ServeSource is the live counterpart of Source: instead of returning one
// finished corpus, it delivers connections continuously as they complete —
// the ingest contract of the clap-serve daemon. Implementations run until
// the context is cancelled or the underlying feed ends, and report how
// many records they could not decode.
type ServeSource interface {
	// Name labels the source in serving metrics and logs.
	Name() string
	// Stream blocks, handing each completed connection to deliver in
	// arrival order, until ctx is cancelled or the feed is exhausted.
	// deliver may block (backpressure) or drop internally; the source
	// just produces. skipped counts records the source could not decode.
	Stream(ctx context.Context, deliver func(*Connection)) (skipped int, err error)
}

// RingStatser is implemented by capture sources backed by a kernel ring
// buffer (AFPacket): cumulative packets the kernel matched to the socket
// and packets it dropped because userspace fell behind. The serving
// layer surfaces these as clap_serve_source_kernel_* metrics — the only
// visibility into loss that happens before the first byte reaches us.
type RingStatser interface {
	RingStats() (packets, drops uint64, ok bool)
}

// LiveConfig tunes the live sources.
type LiveConfig struct {
	// MaxPackets cuts connections that exceed this packet budget so a
	// long-lived flow is scored in segments instead of buffered forever.
	// Negative means unbounded; 0 selects the default of 512.
	MaxPackets int
	// IdleFlush emits connections that saw no packet for this long (wall
	// clock), catching half-open flows and lost teardowns. 0 selects the
	// default of 5s; negative disables idle flushing.
	IdleFlush time.Duration
	// Poll is how often a tailing source re-checks a quiet file (and how
	// long an AF_PACKET source waits per block poll). Default 250ms.
	Poll time.Duration
}

func (c LiveConfig) withDefaults() LiveConfig {
	switch {
	case c.MaxPackets == 0:
		c.MaxPackets = 512
	case c.MaxPackets < 0:
		// The assembler's own convention: 0 is unbounded. Resolving the
		// sentinel here keeps "unbounded" expressible without making the
		// zero value of LiveConfig dangerous.
		c.MaxPackets = 0
	}
	if c.IdleFlush == 0 {
		c.IdleFlush = 5 * time.Second
	}
	if c.Poll == 0 {
		c.Poll = 250 * time.Millisecond
	}
	return c
}

// TailPCAP follows a growing pcap file — the capture file a DPI-side
// tcpdump keeps appending to. The source waits for the file (and its
// global header) to appear, then streams records as they are written,
// polling on quiet periods, assembling connections incrementally and
// delivering each one as it closes, fills its packet budget, or goes
// idle. Rotation (the file replaced under the same path) and in-place
// truncation are detected on quiet periods: the source reopens, resyncs
// to the new capture's global header, and keeps the assembler's half-open
// connections intact across the boundary. The stream ends only on
// context cancellation.
func TailPCAP(path string, cfg LiveConfig) ServeSource {
	return &tailSource{path: path, cfg: cfg.withDefaults()}
}

type tailSource struct {
	path string
	cfg  LiveConfig
}

func (s *tailSource) Name() string { return "tail:" + s.path }

func (s *tailSource) Stream(ctx context.Context, deliver func(*Connection)) (int, error) {
	// Wait for the file to exist at all.
	var f *os.File
	for {
		var err error
		f, err = os.Open(s.path)
		if err == nil {
			break
		}
		if !os.IsNotExist(err) {
			return 0, err
		}
		select {
		case <-ctx.Done():
			return 0, nil
		case <-time.After(s.cfg.Poll):
		}
	}
	tr := &tailReader{ctx: ctx, path: s.path, poll: s.cfg.Poll, f: f}
	defer tr.Close()
	return streamPCAPRecords(ctx, tr, s.cfg, deliver)
}

// errResync signals that a tailed capture file was rotated or truncated:
// the byte stream restarts at a fresh pcap global header. The ingest
// loop responds by creating a new pcap reader (discarding any stale
// buffered bytes) without disturbing the assembler's half-open state.
var errResync = errors.New("clap: capture file rotated; resyncing to new global header")

// tailReader turns a growing capture file into a blocking reader. EOF
// means "no new data yet": it polls, and on each quiet period checks for
// in-place truncation (file shrank below our offset) and rotation (the
// path now names a different inode), recovering from both by rewinding
// or reopening and reporting errResync so the pcap layer resyncs. A
// plain logrotate of a tcpdump capture therefore no longer stalls the
// source forever at a stale offset.
type tailReader struct {
	ctx  context.Context
	path string
	poll time.Duration
	f    *os.File
	off  int64
}

func (t *tailReader) Read(p []byte) (int, error) {
	for {
		n, err := t.f.Read(p)
		if n > 0 {
			t.off += int64(n)
			return n, nil
		}
		if err != nil && err != io.EOF {
			return 0, err
		}
		if err := t.check(); err != nil {
			return 0, err
		}
		select {
		case <-t.ctx.Done():
			return 0, io.EOF
		case <-time.After(t.poll):
		}
	}
}

// check looks for truncation and rotation once the file has gone quiet.
func (t *tailReader) check() error {
	cur, err := t.f.Stat()
	if err != nil {
		return err
	}
	if cur.Size() < t.off {
		// Truncated in place: the writer restarted the capture into the
		// same file. Rewind and resync.
		if _, err := t.f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		t.off = 0
		return errResync
	}
	onDisk, err := os.Stat(t.path)
	if err != nil {
		if os.IsNotExist(err) {
			// Rotated away with no replacement yet; wait for one.
			return t.reopen()
		}
		return err
	}
	if !os.SameFile(cur, onDisk) {
		// Rotated: the path names a new file.
		return t.reopen()
	}
	return nil
}

// reopen polls until the path exists again, then switches to the new
// file from offset 0.
func (t *tailReader) reopen() error {
	for {
		f, err := os.Open(t.path)
		if err == nil {
			t.f.Close()
			t.f, t.off = f, 0
			return errResync
		}
		if !os.IsNotExist(err) {
			return err
		}
		select {
		case <-t.ctx.Done():
			return io.EOF
		case <-time.After(t.poll):
		}
	}
}

func (t *tailReader) Close() error { return t.f.Close() }

// FollowPCAP streams pcap records from r — stdin, a named pipe from a
// capture process, a socket — assembling and delivering connections live.
// The stream ends at EOF or context cancellation; with a blocking reader,
// cancellation takes effect at the next record boundary.
func FollowPCAP(name string, r io.Reader, cfg LiveConfig) ServeSource {
	return &followSource{name: name, r: r, cfg: cfg.withDefaults()}
}

type followSource struct {
	name string
	r    io.Reader
	cfg  LiveConfig
}

func (s *followSource) Name() string { return s.name }

func (s *followSource) Stream(ctx context.Context, deliver func(*Connection)) (int, error) {
	return streamPCAPRecords(ctx, s.r, s.cfg, deliver)
}

// Live sources hand decoded packets to the assembly loop in blocks: one
// channel handoff and one clock read per block, not per packet.
const (
	// ingestBlockLen is the most records one block carries.
	ingestBlockLen = 256
	// ingestQueue is how many blocks may wait for the assembly loop. With
	// the block the reader is filling and the one being fed, at most
	// (ingestQueue+2)·ingestBlockLen = 1 536 decoded packets are in
	// flight between a live source and its assembler.
	ingestQueue = 4
)

// recBlock is one handoff of a live feed: decoded packets in capture
// order, the count of records that could not be decoded (non-IPv4 or
// not TCP), and on the feed's last block the error that ended it.
type recBlock struct {
	pkts    []*packet.Packet
	skipped int
	err     error
}

// ingest is the block handoff from a live source's reader goroutine to
// assembleRecords. The reader sends the block it is filling when it is
// full and before any read that could block, so a quiet feed never
// strands decoded packets. Every send gives up once ctx is done, so a
// reader whose consumer has returned exits instead of parking. Fed blocks
// come back cleared through a free list; a stream allocates its few
// blocks once.
type ingest struct {
	ctx  context.Context
	full chan *recBlock
	free chan *recBlock
	cur  *recBlock // the reader's block being filled; nil after a send
}

func newIngest(ctx context.Context) *ingest {
	return &ingest{
		ctx:  ctx,
		full: make(chan *recBlock, ingestQueue),
		free: make(chan *recBlock, ingestQueue+2), // every block a stream can have
	}
}

// add appends one record — a decoded packet, or nil for a skipped one —
// and sends the block once it is full. It reports false when the reader
// must stop: ctx is done.
func (in *ingest) add(p *packet.Packet) bool {
	if in.cur == nil {
		select {
		case in.cur = <-in.free:
		default:
			in.cur = &recBlock{pkts: make([]*packet.Packet, 0, ingestBlockLen)}
		}
	}
	if p == nil {
		in.cur.skipped++
	} else {
		in.cur.pkts = append(in.cur.pkts, p)
	}
	if len(in.cur.pkts)+in.cur.skipped < ingestBlockLen {
		return true
	}
	return in.send()
}

// send hands the block being filled, if any, to the assembly loop. It
// reports false when ctx is done; the block is then dropped.
func (in *ingest) send() bool {
	if in.cur == nil {
		return true
	}
	if in.ctx.Err() != nil {
		// Checked first: select picks among ready cases at random, and a
		// reader on a never-blocking feed must stop at its next block.
		return false
	}
	select {
	case in.full <- in.cur:
		in.cur = nil
		return true
	case <-in.ctx.Done():
		return false
	}
}

// fail sends the partial block with the error that ended the feed.
func (in *ingest) fail(err error) {
	if in.cur == nil {
		in.cur = &recBlock{}
	}
	in.cur.err = err
	in.send()
}

// recycle clears a fed block, so it pins no packets, and offers it back
// to the reader.
func (in *ingest) recycle(b *recBlock) {
	clear(b.pkts)
	*b = recBlock{pkts: b.pkts[:0]}
	select {
	case in.free <- b:
	default:
	}
}

// streamPCAPRecords is the pcap ingest front half: a reader goroutine
// decodes records (it may block on a quiet feed) into blocks consumed by
// the shared assembly loop. When the byte stream resyncs (errResync from
// a rotated tail), the goroutine restarts the pcap reader at the new
// global header; the assembler is untouched, so connections spanning the
// rotation survive.
//
// On cancellation the reader goroutine exits at its next handoff. Only a
// Read that never returns (a pipe with no writer) keeps it, until that
// Read returns; the stream itself ends promptly.
func streamPCAPRecords(ctx context.Context, r io.Reader, cfg LiveConfig, deliver func(*Connection)) (int, error) {
	in := newIngest(ctx)
	go func() {
		defer close(in.full)
		for {
			rd, err := pcapio.NewReader(r)
			if errors.Is(err, errResync) {
				continue
			}
			if err != nil {
				in.fail(err)
				return
			}
			for {
				// Hand off what is decoded before a read that could wait.
				if !rd.NextBuffered() && !in.send() {
					return
				}
				p, err := rd.ReadPacket()
				if err == io.EOF {
					in.send()
					return
				}
				if errors.Is(err, errResync) {
					break // only a Read resyncs, and the block went before it
				}
				if err != nil {
					in.fail(err)
					return
				}
				if !in.add(p) {
					return
				}
			}
		}
	}()
	return assembleRecords(ctx, in, cfg, deliver)
}

// assembleRecords is the shared live assembly loop, common to every
// packet-granular source (pcap tail/follow and the AF_PACKET ring): it
// feeds the incremental assembler a block at a time, flushes idle
// connections on a ticker even while the feed is silent, and flushes
// everything at end of stream. Sharing this loop is what makes
// "bit-identical to the pcap path" a structural property of a new source
// rather than a test hope.
func assembleRecords(ctx context.Context, in *ingest, cfg LiveConfig, deliver func(*Connection)) (int, error) {
	asm := flow.NewAssembler(deliver)
	asm.MaxPackets = cfg.MaxPackets
	var flush <-chan time.Time
	if cfg.IdleFlush > 0 {
		t := time.NewTicker(cfg.IdleFlush)
		defer t.Stop()
		flush = t.C
	}
	skipped := 0
	for {
		select {
		case <-ctx.Done():
			asm.Flush()
			return skipped, nil
		case b, ok := <-in.full:
			if !ok {
				asm.Flush()
				return skipped, nil
			}
			asm.Feed(b.pkts...)
			skipped += b.skipped
			err := b.err
			in.recycle(b)
			if err != nil {
				asm.Flush()
				if ctx.Err() != nil {
					// A header or record truncated by cancellation
					// mid-read is not a corrupt capture.
					return skipped, nil
				}
				return skipped, err
			}
		case <-flush:
			asm.FlushIdle(cfg.IdleFlush)
		}
	}
}

// AFPacketConfig selects and shapes a kernel capture for AFPacketCapture.
type AFPacketConfig struct {
	// Interface is the device to capture on.
	Interface string
	// Fanout joins a PACKET_FANOUT_HASH group so N workers with the
	// same FanoutID each own a disjoint, flow-consistent shard of the
	// interface. Sharding is opt-in because group 0 is itself a valid
	// fanout id: the zero-value config captures solo.
	Fanout bool
	// FanoutID is the fanout group (0..65535); consulted only when
	// Fanout is set.
	FanoutID int
	// Promiscuous captures traffic not addressed to the interface.
	Promiscuous bool
	// DropUID/DropGID, when both positive, irreversibly drop the process
	// to that uid/gid once the socket and ring exist, so root (or
	// CAP_NET_RAW) covers only socket setup.
	DropUID int
	DropGID int
}

// AFPacket is the common-case AF_PACKET source: capture iface, shard by
// PACKET_FANOUT_HASH under fanoutID (negative: no fanout). See
// AFPacketCapture for the full configuration surface.
func AFPacket(iface string, fanoutID int, cfg LiveConfig) ServeSource {
	return AFPacketCapture(AFPacketConfig{Interface: iface, Fanout: fanoutID >= 0, FanoutID: fanoutID}, cfg)
}

// fanoutID maps the zero-value-safe public fanout fields onto the
// internal sentinel convention (negative disables fanout).
func (c AFPacketConfig) fanoutID() int {
	if !c.Fanout {
		return -1
	}
	return c.FanoutID
}

// AFPacketCapture is the zero-copy live source: a TPACKETv3 mmap'd block
// ring on an AF_PACKET socket (no cgo, no libpcap). The kernel writes
// frames straight into shared memory; the source harvests whole blocks,
// decodes frames with internal/packet, and runs the same assembly loop
// as the pcap sources — so connections and scores are bit-identical to a
// pcap of the same packets. Requires CAP_NET_RAW at Stream time (only
// across socket setup when DropUID/DropGID are set), and linux.
func AFPacketCapture(acfg AFPacketConfig, cfg LiveConfig) ServeSource {
	s := &afpacketSource{name: "afpacket:" + acfg.Interface, cfg: cfg.withDefaults()}
	s.open = func() (afpacket.Ring, error) {
		h, err := afpacket.Open(afpacket.Config{
			Interface:   acfg.Interface,
			FanoutID:    acfg.fanoutID(),
			FanoutType:  afpacket.FanoutHash,
			Promiscuous: acfg.Promiscuous,
			DropUID:     acfg.DropUID,
			DropGID:     acfg.DropGID,
			PollTimeout: s.cfg.Poll,
		})
		if err != nil {
			return nil, err
		}
		return h, nil
	}
	return s
}

type afpacketSource struct {
	name string
	cfg  LiveConfig
	// open is injectable: production opens a kernel ring; tests substitute
	// afpacket.NewSyntheticRing to run the whole source unprivileged.
	open func() (afpacket.Ring, error)

	mu   sync.Mutex
	ring afpacket.Ring
}

func (s *afpacketSource) Name() string { return s.name }

// RingStats implements RingStatser while the source is streaming from a
// ring that exposes kernel counters.
func (s *afpacketSource) RingStats() (uint64, uint64, bool) {
	s.mu.Lock()
	ring := s.ring
	s.mu.Unlock()
	st, ok := ring.(interface {
		Stats() (uint64, uint64, error)
	})
	if !ok {
		return 0, 0, false
	}
	pkts, drops, err := st.Stats()
	if err != nil {
		return 0, 0, false
	}
	return pkts, drops, true
}

func (s *afpacketSource) Stream(ctx context.Context, deliver func(*Connection)) (int, error) {
	ring, err := s.open()
	if err != nil {
		return 0, fmt.Errorf("afpacket: open %s: %w", s.name, err)
	}
	s.mu.Lock()
	s.ring = ring
	s.mu.Unlock()

	hctx, cancel := context.WithCancel(ctx)
	in := newIngest(hctx)
	// Teardown order is load-bearing: the harvest goroutine walks frame
	// bytes that alias the mmap'd ring, so the mapping must outlive it.
	// On any return — cancellation included, where assembleRecords bails
	// while the goroutine may be mid-ParseBlock — cancel the harvest
	// context, then drain the block channel until the goroutine closes it
	// (its sends give up and NextBlock reports io.EOF once the context is
	// done, so the join terminates), and only then detach the ring from
	// Stats scrapes and munmap it.
	defer func() {
		cancel()
		for range in.full {
		}
		s.mu.Lock()
		s.ring = nil
		s.mu.Unlock()
		ring.Close()
	}()
	go func() {
		defer close(in.full)
		for {
			block, release, err := ring.NextBlock(hctx)
			if err == io.EOF {
				return
			}
			if err != nil {
				in.fail(err)
				return
			}
			// Frames alias the block; packet.Decode copies everything it
			// keeps, so the block can be released after the walk.
			ok := true
			_, perr := afpacket.ParseBlock(block, func(f afpacket.Frame) {
				if ok {
					ok = in.add(decodeFrame(f))
				}
			})
			release()
			if perr != nil {
				in.fail(perr)
				return
			}
			// The rest of the ring block goes now: NextBlock may wait.
			if !ok || !in.send() {
				return
			}
		}
	}()
	return assembleRecords(ctx, in, s.cfg, deliver)
}

// decodeFrame decodes a captured Ethernet frame into a packet stamped
// with its capture time, or nil for a frame that is not TCP/IPv4 — the
// records the pcap path skips.
func decodeFrame(f afpacket.Frame) *packet.Packet {
	ip, ok := afpacket.IPv4Payload(f.Data)
	if !ok {
		return nil
	}
	p, err := packet.Decode(ip)
	if err != nil {
		return nil
	}
	p.Timestamp = f.Timestamp
	return p
}

// SoakConfig tunes the synthetic soak source.
type SoakConfig struct {
	// Connections is the total to generate; 0 means run until cancelled.
	Connections int
	// Seed makes the soak deterministic (connections and attack plan).
	Seed int64
	// Rate caps delivery at roughly this many connections per second;
	// 0 delivers as fast as downstream accepts (pure load test). Rates
	// above 1e9 (sub-nanosecond intervals) are rejected at Stream time.
	Rate float64
	// AttackFraction injects an evasion strategy into this fraction of
	// connections (0: all benign).
	AttackFraction float64
}

// soakBatch is the soak source's generation granularity: connections per
// trafficgen call, each call under its own derived seed.
const soakBatch = 64

// soakStrategies is the detectable evasion mix soak attacks rotate
// through.
var soakStrategies = []string{
	"GFW: Injected RST Bad TCP-Checksum/MD5-Option",
	"Low TTL (Max)",
	"Injected RST-ACK / Bad TCP Checksum",
}

// Soak is the load-testing source: an endless stream of synthetic
// backbone-style connections, optionally laced with evasion attacks — the
// trafficgen soak mode used to exercise a clap-serve deployment without a
// capture feed. Fully deterministic under cfg.Seed when Rate is 0.
func Soak(cfg SoakConfig) ServeSource {
	return &soakSource{cfg: cfg}
}

type soakSource struct{ cfg SoakConfig }

func (s *soakSource) Name() string { return "soak" }

func (s *soakSource) Stream(ctx context.Context, deliver func(*Connection)) (int, error) {
	strategies := make([]Strategy, 0, len(soakStrategies))
	for _, name := range soakStrategies {
		st, ok := attacks.ByName(name)
		if !ok {
			return 0, fmt.Errorf("soak: unknown strategy %q", name)
		}
		strategies = append(strategies, st)
	}
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	var ticker *time.Ticker
	if s.cfg.Rate > 0 {
		interval := time.Duration(float64(time.Second) / s.cfg.Rate)
		if interval <= 0 {
			// A rate above 1e9/s rounds to a zero (or negative) interval,
			// which time.NewTicker rejects with a panic. Rates that high
			// mean "uncapped" at best and a typo at worst; fail loudly.
			return 0, fmt.Errorf("soak: rate %g connections/s is too high to schedule (use 0 for uncapped)", s.cfg.Rate)
		}
		ticker = time.NewTicker(interval)
		defer ticker.Stop()
	}
	produced := 0
	for batch := 0; ; batch++ {
		n := soakBatch
		if s.cfg.Connections > 0 {
			if remaining := s.cfg.Connections - produced; remaining <= 0 {
				return 0, nil
			} else if n > remaining {
				n = remaining
			}
		}
		// Each batch gets its own derived seed so the stream never repeats.
		conns := GenerateBenign(n, s.cfg.Seed+int64(batch)*7919)
		for i, c := range conns {
			if s.cfg.AttackFraction > 0 && rng.Float64() < s.cfg.AttackFraction {
				st := strategies[(produced+i)%len(strategies)]
				if st.Apply(c, rng) {
					c.AttackName = st.Name
				}
			}
			if ticker != nil {
				select {
				case <-ctx.Done():
					return 0, nil
				case <-ticker.C:
				}
			} else if ctx.Err() != nil {
				return 0, nil
			}
			deliver(c)
		}
		produced += n
	}
}

// Replay adapts a batch Source to the live contract: the corpus is read
// once and delivered connection by connection — replaying a recorded pcap
// through a running clap-serve instance.
func Replay(name string, src Source) ServeSource {
	return &replaySource{name: name, src: src}
}

type replaySource struct {
	name string
	src  Source
}

func (s *replaySource) Name() string { return s.name }

func (s *replaySource) Stream(ctx context.Context, deliver func(*Connection)) (int, error) {
	conns, skipped, err := s.src.Connections(nil)
	if err != nil {
		return skipped, err
	}
	for _, c := range conns {
		if ctx.Err() != nil {
			return skipped, nil
		}
		deliver(c)
	}
	return skipped, nil
}
