package clap

import (
	"bytes"
	"context"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clap/internal/afpacket"
	"clap/internal/flow"
	"clap/internal/packet"
)

// framePackets wraps capture-ordered packets in the same synthetic
// Ethernet framing the pcap writer uses and packs them into TPACKETv3
// blocks, perFrame frames per block. Timestamps are truncated to
// microseconds because that is all a classic pcap file can carry — the
// two paths must see identical inputs for the bits to match.
func framePackets(t *testing.T, pkts []*packet.Packet, perFrame int) [][]byte {
	t.Helper()
	var (
		blocks [][]byte
		bb     = afpacket.NewBlockBuilder()
		n      = 0
	)
	for _, p := range pkts {
		raw, err := p.Encode(packet.SerializeOptions{})
		if err != nil {
			t.Fatalf("encoding packet: %v", err)
		}
		frame := make([]byte, 0, 14+len(raw))
		frame = append(frame, 0x02, 0, 0, 0, 0, 0x02) // dst, as pcapio writes
		frame = append(frame, 0x02, 0, 0, 0, 0, 0x01) // src
		frame = append(frame, 0x08, 0x00)             // IPv4
		frame = append(frame, raw...)
		bb.Append(p.Timestamp.Truncate(time.Microsecond), frame, len(frame))
		if n++; n == perFrame {
			blocks = append(blocks, bb.Bytes())
			bb, n = afpacket.NewBlockBuilder(), 0
		}
	}
	if n > 0 {
		blocks = append(blocks, bb.Bytes())
	}
	return blocks
}

// syntheticAFPacket builds the production afpacket source with its ring
// opener swapped for an in-memory synthetic ring, so the full Stream
// path (block walk, frame decode, assembly) runs unprivileged.
func syntheticAFPacket(blocks [][]byte, cfg LiveConfig) ServeSource {
	return &afpacketSource{
		name: "afpacket:synthetic",
		cfg:  cfg.withDefaults(),
		open: func() (afpacket.Ring, error) {
			return afpacket.NewSyntheticRing(blocks...), nil
		},
	}
}

// memSource feeds already-assembled connections into a Pipeline.
type memSource []*Connection

func (s memSource) Name() string { return "mem" }
func (s memSource) Connections(*Engine) ([]*Connection, int, error) {
	return s, 0, nil
}

// TestAFPacketSyntheticBitIdentity is the tentpole equivalence pin: the
// same packets delivered through the pcap streaming path and through the
// AF_PACKET source (decoding synthetic in-memory TPACKETv3 blocks) must
// produce identical connections — and identical scores at every worker
// count. Capture transport must never change the bits.
func TestAFPacketSyntheticBitIdentity(t *testing.T) {
	want := GenerateBenign(40, 77)
	pkts := flow.Flatten(want)

	// Path A: classic pcap bytes through the streaming follow source.
	var buf bytes.Buffer
	if err := WritePCAP(&buf, want); err != nil {
		t.Fatal(err)
	}
	pcapConns, pcapSkipped := collectServe(t, FollowPCAP("pcap", bytes.NewReader(buf.Bytes()), fastLive), context.Background())

	// Path B: the same packets as Ethernet frames in TPACKETv3 blocks.
	// An awkward per-block frame count exercises block boundaries that
	// do not line up with connection boundaries.
	blocks := framePackets(t, pkts, 7)
	afConns, afSkipped := collectServe(t, syntheticAFPacket(blocks, fastLive), context.Background())

	if pcapSkipped != afSkipped {
		t.Fatalf("skipped diverged: pcap %d, afpacket %d", pcapSkipped, afSkipped)
	}
	if len(afConns) != len(pcapConns) || len(pcapConns) != len(want) {
		t.Fatalf("connection counts diverged: pcap %d, afpacket %d, input %d", len(pcapConns), len(afConns), len(want))
	}
	for i := range pcapConns {
		pc, ac := pcapConns[i], afConns[i]
		if pc.Key != ac.Key {
			t.Fatalf("conn %d: key %v != %v", i, ac.Key, pc.Key)
		}
		if pc.Len() != ac.Len() {
			t.Fatalf("conn %d (%v): %d packets via afpacket, %d via pcap", i, pc.Key, ac.Len(), pc.Len())
		}
		for j := range pc.Packets {
			if pc.Dirs[j] != ac.Dirs[j] {
				t.Fatalf("conn %d packet %d: direction %v != %v", i, j, ac.Dirs[j], pc.Dirs[j])
			}
			if !pc.Packets[j].Timestamp.Equal(ac.Packets[j].Timestamp) {
				t.Fatalf("conn %d packet %d: timestamp %v != %v", i, j, ac.Packets[j].Timestamp, pc.Packets[j].Timestamp)
			}
			pb, err := pc.Packets[j].Encode(packet.SerializeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ab, err := ac.Packets[j].Encode(packet.SerializeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pb, ab) {
				t.Fatalf("conn %d packet %d: wire bytes diverged between paths", i, j)
			}
		}
	}

	// Scores: serial detector reference on the pcap-path connections,
	// pinned against pipeline runs over the afpacket-path connections at
	// every worker count.
	bk := pipelineBackend(t)
	det := bk.(*CLAPBackend).Detector()
	wantScores := make([]float64, len(pcapConns))
	for i, c := range pcapConns {
		wantScores[i] = det.Score(c).Adversarial
	}
	for _, workers := range []int{1, 4} {
		p, err := NewPipeline(WithBackend(bk), WithWorkers(workers), WithShards(workers))
		if err != nil {
			t.Fatal(err)
		}
		sum, err := p.Run(memSource(afConns))
		if err != nil {
			t.Fatal(err)
		}
		if len(sum.Results) != len(wantScores) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(sum.Results), len(wantScores))
		}
		for i, r := range sum.Results {
			if r.Score != wantScores[i] {
				t.Fatalf("workers=%d: conn %d score %v != serial pcap-path %v", workers, i, r.Score, wantScores[i])
			}
		}
	}
}

// TestAFPacketSourceSkipsNonIP pins the skip accounting: non-IPv4 frames
// (an ARP) and undecodable IPv4 bytes count as skipped, exactly like the
// pcap path's junk records, without disturbing assembly.
func TestAFPacketSourceSkipsNonIP(t *testing.T) {
	want := GenerateBenign(2, 99)
	pkts := flow.Flatten(want)
	bb := afpacket.NewBlockBuilder()
	arp := make([]byte, 42)
	arp[12], arp[13] = 0x08, 0x06
	bb.Append(time.Unix(50, 0), arp, len(arp))
	junk := make([]byte, 30)
	junk[12], junk[13] = 0x08, 0x00 // IPv4 ethertype, garbage payload
	bb.Append(time.Unix(51, 0), junk, len(junk))
	for _, p := range pkts {
		raw, err := p.Encode(packet.SerializeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		frame := append(make([]byte, 0, 14+len(raw)),
			0x02, 0, 0, 0, 0, 0x02, 0x02, 0, 0, 0, 0, 0x01, 0x08, 0x00)
		frame = append(frame, raw...)
		bb.Append(p.Timestamp, frame, len(frame))
	}
	conns, skipped := collectServe(t, syntheticAFPacket([][]byte{bb.Bytes()}, fastLive), context.Background())
	if skipped != 2 {
		t.Fatalf("skipped = %d, want 2 (ARP + undecodable IPv4)", skipped)
	}
	if len(conns) != len(want) {
		t.Fatalf("%d connections, want %d", len(conns), len(want))
	}
}

// teardownRing hands out one large block, cancelling the capture context
// the instant the block leaves its hands — the worst-case shutdown: the
// harvest goroutine is mid-walk (and, with more frames than the record
// channel buffers, blocked sending) when the assembly loop bails. Close
// records whether it ran while the block was still outstanding, which on
// a kernel ring would be a munmap under a live ParseBlock.
type teardownRing struct {
	block       []byte
	cancel      context.CancelFunc
	outstanding int32
	closedEarly bool
	closed      bool
}

func (r *teardownRing) NextBlock(ctx context.Context) ([]byte, func(), error) {
	if ctx.Err() != nil || r.closed {
		return nil, nil, io.EOF
	}
	r.cancel()
	atomic.AddInt32(&r.outstanding, 1)
	var once sync.Once
	return r.block, func() {
		once.Do(func() { atomic.AddInt32(&r.outstanding, -1) })
	}, nil
}

func (r *teardownRing) Close() error {
	r.closed = true
	if atomic.LoadInt32(&r.outstanding) != 0 {
		r.closedEarly = true
	}
	return nil
}

// TestAFPacketStreamTeardownJoinsHarvest pins the shutdown ordering:
// cancellation must drain and join the harvest goroutine BEFORE the ring
// is closed, because closing a kernel ring munmaps memory the goroutine's
// block walk still aliases. Pre-fix this raced: Stream returned on
// ctx.Done with the harvester blocked sending into a full record channel,
// then closed the ring under it (use-after-munmap) and leaked the
// goroutine.
func TestAFPacketStreamTeardownJoinsHarvest(t *testing.T) {
	// 600 ARP frames: far more than the 64-slot record buffer, so the
	// walk is guaranteed to be parked on a send at cancellation.
	bb := afpacket.NewBlockBuilder()
	arp := make([]byte, 42)
	arp[12], arp[13] = 0x08, 0x06
	for i := 0; i < 600; i++ {
		bb.Append(time.Unix(int64(i), 0), arp, len(arp))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ring := &teardownRing{block: bb.Bytes(), cancel: cancel}
	src := &afpacketSource{
		name: "afpacket:teardown",
		cfg:  fastLive.withDefaults(),
		open: func() (afpacket.Ring, error) { return ring, nil },
	}
	collectServe(t, src, ctx)
	if !ring.closed {
		t.Fatal("ring was never closed")
	}
	if ring.closedEarly {
		t.Fatal("ring closed while a block was still being walked: use-after-munmap on a kernel ring")
	}
}

// quietRing serves its blocks and then stays quiet until the capture is
// cancelled, as a kernel ring on an idle link does.
type quietRing struct{ afpacket.Ring }

func (r quietRing) NextBlock(ctx context.Context) ([]byte, func(), error) {
	block, release, err := r.Ring.NextBlock(ctx)
	if err == io.EOF {
		<-ctx.Done()
	}
	return block, release, err
}

// TestAFPacketPartialBlockOnQuietRing: the harvest hands a short ring
// block's packets over before it waits for the next block, so a flow in
// the last block before the link goes quiet is idle-flushed, not held.
func TestAFPacketPartialBlockOnQuietRing(t *testing.T) {
	want := GenerateBenign(1, 7)
	blocks := framePackets(t, flow.Flatten(want), 1000)
	if len(blocks) != 1 || want[0].Len() >= ingestBlockLen {
		t.Fatalf("fixture: %d blocks of a %d-packet flow, want one short block", len(blocks), want[0].Len())
	}
	src := &afpacketSource{
		name: "afpacket:quiet",
		cfg:  fastLive.withDefaults(),
		open: func() (afpacket.Ring, error) { return quietRing{afpacket.NewSyntheticRing(blocks...)}, nil },
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan *Connection, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		src.Stream(ctx, func(c *Connection) { got <- c })
	}()
	defer func() {
		cancel()
		<-done
	}()
	select {
	case c := <-got:
		if c.Key != want[0].Key || c.Len() != want[0].Len() {
			t.Fatalf("delivered %v with %d packets, want %v with %d", c.Key, c.Len(), want[0].Key, want[0].Len())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the flow was not delivered while the ring was quiet: its partial block was never handed off")
	}
}

// TestAFPacketConfigZeroValueRunsSolo pins the zero-value safety of the
// public config: fanout group 0 is a real PACKET_FANOUT id, so a caller
// who never asked for sharding must not silently join it.
func TestAFPacketConfigZeroValueRunsSolo(t *testing.T) {
	if got := (AFPacketConfig{Interface: "eth0"}).fanoutID(); got >= 0 {
		t.Fatalf("zero-value AFPacketConfig joins fanout group %d, want solo (negative)", got)
	}
	if got := (AFPacketConfig{Interface: "eth0", Fanout: true}).fanoutID(); got != 0 {
		t.Fatalf("Fanout with FanoutID 0 maps to group %d, want 0", got)
	}
	if got := (AFPacketConfig{Interface: "eth0", Fanout: true, FanoutID: 7}).fanoutID(); got != 7 {
		t.Fatalf("Fanout group 7 maps to %d", got)
	}
}
