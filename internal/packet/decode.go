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
	h.Options = parseOptions(data[20:hlen], n, ok, make([]byte, 0, size))
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

// parseOptions builds the options countOptions counted, in one exact-size
// slice, copying their data into buf (room for size bytes). Every Data is
// capacity-limited to itself, so appending to one option reallocates rather
// than reaching a neighbour's bytes.
func parseOptions(block []byte, n int, ok bool, buf []byte) []Option {
	if n == 0 {
		return nil
	}
	opts := make([]Option, 0, n)
	if !ok {
		data, _ := carve(buf, block)
		return append(opts, Option{Kind: 255, Data: data})
	}
	for i := 0; len(opts) < n; {
		kind := block[i]
		switch kind {
		case OptEndOfList, OptNOP:
			opts = append(opts, Option{Kind: kind})
			i++
		default:
			olen := int(block[i+1])
			var data []byte
			data, buf = carve(buf, block[i+2:i+olen])
			opts = append(opts, Option{Kind: kind, Data: data})
			i += olen
		}
	}
	return opts
}

// A packet is allocated together with room for its option bytes: IP.Options
// and every TCP Option.Data of a decoded packet point into buf, so a packet
// costs one allocation however many options it has. Two sizes, because every
// packet held by an open flow pays for the room: 16 bytes cover the options
// nearly all traffic carries (timestamps; MSS + window scale + timestamps on
// a SYN; an MD5 digest), 40 a header's whole option space.
type (
	packetSmallOptions struct {
		Packet
		buf [16]byte
	}
	packetWithOptions struct {
		Packet
		buf [maxOptionBytes]byte
	}
)

// newPacket allocates a zero Packet and a buffer with room for n option
// bytes — inside the same allocation when they fit, which is every packet
// whose IP and TCP options together stay within one header's option space.
func newPacket(n int) (*Packet, []byte) {
	switch {
	case n == 0:
		return new(Packet), nil
	case n <= len(packetSmallOptions{}.buf):
		p := new(packetSmallOptions)
		return &p.Packet, p.buf[:0]
	case n <= maxOptionBytes:
		p := new(packetWithOptions)
		return &p.Packet, p.buf[:0]
	default:
		return new(Packet), make([]byte, 0, n)
	}
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
// the result aliases data. It allocates the packet with its option bytes,
// the option list when there is one, and the payload when there is one.
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
	p, buf := newPacket(ipLen - 20 + size)
	*p = hdr
	p.IP.Options, buf = carve(buf, data[20:ipLen])
	p.TCP.Options = parseOptions(block, n, ok, buf)
	p.Payload, _ = carve(nil, seg[tcpLen:])
	// Claimed payload length per the IP header; may disagree with captured
	// bytes for stripped or forged packets.
	p.PayloadLen = int(hdr.IP.TotalLen) - ipLen - tcpLen
	if p.PayloadLen < 0 {
		p.PayloadLen = 0
	}
	return p, nil
}
