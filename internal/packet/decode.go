package packet

import (
	"encoding/binary"
	"fmt"
)

var be = binary.BigEndian

// decodeIPv4 parses the fixed IPv4 header into h and returns the header
// length in bytes; the option bytes data[20:hlen] are left to the caller.
func decodeIPv4(h *IPv4Header, data []byte) (int, error) {
	if len(data) < 20 {
		return 0, fmt.Errorf("ipv4: %w: %d bytes", ErrTruncated, len(data))
	}
	h.Version = data[0] >> 4
	h.IHL = data[0] & 0x0f
	h.TOS = data[1]
	h.TotalLen = be.Uint16(data[2:4])
	h.ID = be.Uint16(data[4:6])
	flagsFrag := be.Uint16(data[6:8])
	h.Reserved = flagsFrag&0x8000 != 0
	h.DontFrag = flagsFrag&0x4000 != 0
	h.MoreFrag = flagsFrag&0x2000 != 0
	h.FragOffset = flagsFrag & 0x1fff
	h.TTL = data[8]
	h.Protocol = data[9]
	h.Checksum = be.Uint16(data[10:12])
	copy(h.SrcIP[:], data[12:16])
	copy(h.DstIP[:], data[16:20])
	if h.IHL < 5 {
		// A hard failure: the header length is unusable for locating the
		// payload.
		return 0, fmt.Errorf("ipv4: %w: ihl=%d", ErrBadIHL, h.IHL)
	}
	hlen := int(h.IHL) * 4
	if hlen > len(data) {
		return 0, fmt.Errorf("ipv4: %w: ihl=%d data=%d", ErrTruncated, h.IHL, len(data))
	}
	return hlen, nil
}

// DecodeIPv4 parses an IPv4 header from data. It returns the parsed header
// and the number of header bytes consumed. Malformed-but-decodable packets
// (bad checksums, inconsistent lengths) decode without error: CLAP must be
// able to observe exactly the garbage attackers put on the wire. Only
// structurally undecodable inputs (truncation below the fixed header, IHL<5)
// fail.
func DecodeIPv4(data []byte) (IPv4Header, int, error) {
	var h IPv4Header
	hlen, err := decodeIPv4(&h, data)
	if err != nil {
		return h, 0, err
	}
	h.Options, _ = carve(nil, data[20:hlen])
	return h, hlen, nil
}

// decodeTCP parses the fixed TCP header into h and returns the header length
// in bytes; the option block data[20:hlen] is left to the caller.
func decodeTCP(h *TCPHeader, data []byte) (int, error) {
	if len(data) < 20 {
		return 0, fmt.Errorf("tcp: %w: %d bytes", ErrTruncated, len(data))
	}
	h.SrcPort = be.Uint16(data[0:2])
	h.DstPort = be.Uint16(data[2:4])
	h.Seq = be.Uint32(data[4:8])
	h.Ack = be.Uint32(data[8:12])
	h.DataOffset = data[12] >> 4
	h.Reserved = data[12] >> 1 & 0x07
	h.Flags = Flags(be.Uint16(data[12:14]) & 0x01ff)
	h.Window = be.Uint16(data[14:16])
	h.Checksum = be.Uint16(data[16:18])
	h.Urgent = be.Uint16(data[18:20])
	if h.DataOffset < 5 {
		return 0, fmt.Errorf("tcp: %w: offset=%d", ErrBadOffset, h.DataOffset)
	}
	hlen := int(h.DataOffset) * 4
	if hlen > len(data) {
		return 0, fmt.Errorf("tcp: %w: offset=%d data=%d", ErrTruncated, h.DataOffset, len(data))
	}
	return hlen, nil
}

// DecodeTCP parses a TCP header from data, returning the header and the
// number of header bytes consumed. Like DecodeIPv4 it tolerates semantic
// garbage and only rejects structural impossibilities.
func DecodeTCP(data []byte) (TCPHeader, int, error) {
	var h TCPHeader
	hlen, err := decodeTCP(&h, data)
	if err != nil {
		return h, 0, err
	}
	n, size, ok := countOptions(data[20:hlen])
	if n > 0 {
		h.Options = make([]Option, n)
		parseOptions(data[20:hlen], ok, h.Options, make([]byte, 0, size))
	}
	return h, hlen, nil
}

// countOptions walks a TCP options block without keeping anything: n
// options carrying size data bytes between them, so the caller can allocate
// both exactly before parseOptions fills them. It stops at EOL (everything
// after it is padding, represented implicitly) and counts NOPs. A block that
// does not parse is kept whole, as the data of a single unknown option, so
// nothing the sender put there is lost: ok is false, n is 1 and size is the
// block.
func countOptions(block []byte) (n, size int, ok bool) {
	for i := 0; i < len(block); {
		switch block[i] {
		case OptEndOfList:
			return n + 1, size, true
		case OptNOP:
			n++
			i++
		default:
			if i+1 >= len(block) {
				return 1, len(block), false
			}
			olen := int(block[i+1])
			if olen < 2 || i+olen > len(block) {
				return 1, len(block), false
			}
			n++
			size += olen - 2
			i += olen
		}
	}
	return n, size, true
}

// parseOptions fills opts, which has the length countOptions counted, with
// the block's options, copying their data into buf (room for size bytes).
// Every Data is capacity-limited to itself, so appending to one option
// reallocates rather than reaching a neighbour's bytes.
func parseOptions(block []byte, ok bool, opts []Option, buf []byte) {
	if !ok {
		opts[0] = Option{Kind: 255}
		opts[0].Data, _ = carve(buf, block)
		return
	}
	for j, i := 0, 0; j < len(opts); j++ {
		kind := block[i]
		opts[j].Kind = kind
		switch kind {
		case OptEndOfList, OptNOP:
			i++
		default:
			olen := int(block[i+1])
			opts[j].Data, buf = carve(buf, block[i+2:i+olen])
			i += olen
		}
	}
}

// A packet is allocated together with its option list and room for its
// option bytes: IP.Options, TCP.Options and every TCP Option.Data of a
// decoded or cloned packet point into the packet's own allocation, so a
// packet costs one allocation whatever options it carries. Every packet an
// open flow holds pays for its class, so each class fills a Go size class
// exactly (amd64: Packet is 160 bytes, an Option 32) and the common shapes
// take the smallest that fits them:
//
//   - no options: the bare Packet, 160 bytes;
//   - up to 2 options in 16 bytes, 240: timestamps and the EOL that pads
//     them, an MD5 digest;
//   - up to 3, 4 or 5 options in 32 bytes, 288, 320 or 352: handshakes,
//     whose SYN carries MSS, window scale, SACK-permitted, timestamps and
//     EOL;
//   - up to 8 in 96, 512: more option bytes than two headers can carry.
//
// Beyond that (NOP floods, built packets with oversized options) the list
// and the bytes are allocations of their own.
type (
	packetOptions2 struct {
		Packet
		opts [2]Option
		buf  [16]byte
	}
	packetOptions3 struct {
		Packet
		opts [3]Option
		buf  [32]byte
	}
	packetOptions4 struct {
		Packet
		opts [4]Option
		buf  [32]byte
	}
	packetOptions5 struct {
		Packet
		opts [5]Option
		buf  [32]byte
	}
	packetOptions8 struct {
		Packet
		opts [8]Option
		buf  [96]byte
	}
)

// newPacket allocates a zero Packet with a list of n options (nil for none)
// and an empty buffer with room for size option bytes.
func newPacket(n, size int) (*Packet, []Option, []byte) {
	switch {
	case n == 0 && size == 0:
		return new(Packet), nil, nil
	case n <= 2 && size <= 16:
		p := new(packetOptions2)
		return &p.Packet, list(p.opts[:], n), p.buf[:0]
	case n <= 3 && size <= 32:
		p := new(packetOptions3)
		return &p.Packet, list(p.opts[:], n), p.buf[:0]
	case n <= 4 && size <= 32:
		p := new(packetOptions4)
		return &p.Packet, list(p.opts[:], n), p.buf[:0]
	case n <= 5 && size <= 32:
		p := new(packetOptions5)
		return &p.Packet, list(p.opts[:], n), p.buf[:0]
	case n <= 8 && size <= 96:
		p := new(packetOptions8)
		return &p.Packet, list(p.opts[:], n), p.buf[:0]
	default:
		return new(Packet), list(make([]Option, n), n), make([]byte, 0, size)
	}
}

// list returns the first n options of room as a slice whose capacity ends
// with it, so appending to a packet's option list reallocates; nil for none.
func list(room []Option, n int) []Option {
	if n == 0 {
		return nil
	}
	return room[:n:n]
}

// carve copies src to the end of buf, which must have the room, and returns
// the copy — nil for no bytes, else a slice whose capacity ends where it
// does — and the extended buf. A nil buf allocates.
func carve(buf, src []byte) (data, rest []byte) {
	if len(src) == 0 {
		return nil, buf
	}
	rest = append(buf, src...)
	return rest[len(buf):len(rest):len(rest)], rest
}

// Decode parses a full TCP/IPv4 packet from raw IP bytes. The IP payload
// beyond the TCP header becomes Payload; PayloadLen is derived from the IP
// total length so that forged length fields remain observable. Nothing in
// the result aliases data. It allocates once for the packet, its option
// list and its option bytes (see newPacket), and once more for a payload
// when the capture stores one.
func Decode(data []byte) (*Packet, error) {
	// Parse into a local first: junk is rejected before anything is
	// allocated, and the option sizes are known before the packet is.
	var hdr Packet
	ipLen, err := decodeIPv4(&hdr.IP, data)
	if err != nil {
		return nil, err
	}
	if hdr.IP.Protocol != ProtoTCP {
		return nil, fmt.Errorf("%w: protocol=%d", ErrNotTCP, hdr.IP.Protocol)
	}
	seg := data[ipLen:]
	tcpLen, err := decodeTCP(&hdr.TCP, seg)
	if err != nil {
		return nil, err
	}
	block := seg[20:tcpLen]
	n, size, ok := countOptions(block)
	p, opts, buf := newPacket(n, ipLen-20+size)
	*p = hdr
	p.IP.Options, buf = carve(buf, data[20:ipLen])
	p.TCP.Options = opts
	parseOptions(block, ok, opts, buf)
	p.Payload, _ = carve(nil, seg[tcpLen:])
	// Claimed payload length per the IP header; may disagree with captured
	// bytes for stripped or forged packets.
	p.PayloadLen = int(hdr.IP.TotalLen) - ipLen - tcpLen
	if p.PayloadLen < 0 {
		p.PayloadLen = 0
	}
	return p, nil
}
