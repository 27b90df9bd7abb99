// Package packet implements decoding, encoding and manipulation of IPv4 and
// TCP headers, the only protocol layers CLAP inspects.
//
// The design loosely follows gopacket's fixed-layer decoding style: headers
// are plain structs that decode from and serialize to wire format without
// hidden state, so evasion strategies can freely corrupt individual fields
// and re-serialize. All multi-byte fields are big-endian on the wire.
package packet

import (
	"errors"
	"fmt"
	"time"
)

// Errors returned by the decoders.
var (
	ErrTruncated   = errors.New("packet: truncated data")
	ErrBadIHL      = errors.New("packet: IPv4 IHL smaller than 5 words")
	ErrBadVersion  = errors.New("packet: not an IPv4 packet")
	ErrBadOffset   = errors.New("packet: TCP data offset smaller than 5 words")
	ErrNotTCP      = errors.New("packet: IPv4 payload is not TCP")
	ErrOptionSpace = errors.New("packet: options exceed header space")
)

// Flags is the 9-bit TCP flag field (NS plus the classic 8 bits).
type Flags uint16

// Individual TCP flag bits.
const (
	FIN Flags = 1 << iota
	SYN
	RST
	PSH
	ACK
	URG
	ECE
	CWR
	NS
)

// Has reports whether all bits in f2 are set in f.
func (f Flags) Has(f2 Flags) bool { return f&f2 == f2 }

// flagNames orders flag names from highest bit to lowest for String.
var flagNames = []struct {
	bit  Flags
	name string
}{
	{NS, "NS"}, {CWR, "CWR"}, {ECE, "ECE"}, {URG, "URG"},
	{ACK, "ACK"}, {PSH, "PSH"}, {RST, "RST"}, {SYN, "SYN"}, {FIN, "FIN"},
}

// String renders flags as a '|'-joined list, e.g. "SYN|ACK".
func (f Flags) String() string {
	if f == 0 {
		return "none"
	}
	out := ""
	for _, fn := range flagNames {
		if f.Has(fn.bit) {
			if out != "" {
				out += "|"
			}
			out += fn.name
		}
	}
	return out
}

// IPv4Header models an IPv4 header. Options are kept as raw bytes because
// CLAP only cares about their presence (feature #32 in Table 7).
type IPv4Header struct {
	Version    uint8 // 4 for well-formed packets; attacks may set e.g. 5
	IHL        uint8 // header length in 32-bit words (>= 5 when valid)
	TOS        uint8
	TotalLen   uint16 // entire datagram length in bytes
	ID         uint16
	Reserved   bool // the reserved ("evil") fragment bit, RFC 3514
	DontFrag   bool
	MoreFrag   bool
	FragOffset uint16 // in 8-byte units
	TTL        uint8
	Protocol   uint8
	Checksum   uint16 // stored checksum; see ComputeIPChecksum
	SrcIP      [4]byte
	DstIP      [4]byte
	Options    []byte // raw option bytes, padded to a 4-byte multiple
}

// ProtoTCP is the IPv4 protocol number for TCP.
const ProtoTCP = 6

// HeaderLen returns the header length in bytes implied by IHL.
func (h *IPv4Header) HeaderLen() int { return int(h.IHL) * 4 }

// TCPHeader models a TCP header with parsed options.
type TCPHeader struct {
	SrcPort    uint16
	DstPort    uint16
	Seq        uint32
	Ack        uint32
	DataOffset uint8 // header length in 32-bit words (>= 5 when valid)
	Reserved   uint8 // the 3 reserved bits between DataOffset and NS
	Flags      Flags
	Window     uint16
	Checksum   uint16 // stored checksum; see ComputeTCPChecksum
	Urgent     uint16
	Options    []Option
}

// HeaderLen returns the header length in bytes implied by DataOffset.
func (h *TCPHeader) HeaderLen() int { return int(h.DataOffset) * 4 }

// TCP option kinds used by the corpus.
const (
	OptEndOfList     = 0
	OptNOP           = 1
	OptMSS           = 2
	OptWindowScale   = 3
	OptSACKPermitted = 4
	OptSACK          = 5
	OptTimestamps    = 8
	OptMD5           = 19
	OptUserTimeout   = 28
)

// Option is a single TCP option. For NOP/EOL, Data is nil. A decoded or
// cloned packet's option list and the Data of its options live in the
// packet's own allocation, each slice capacity-limited to its own elements:
// writing through Data changes that option only, and appending to Data or
// to TCPHeader.Options reallocates.
type Option struct {
	Kind uint8
	Data []byte
}

// Len returns the on-wire length of the option in bytes.
func (o Option) Len() int {
	if o.Kind == OptEndOfList || o.Kind == OptNOP {
		return 1
	}
	return 2 + len(o.Data)
}

// Packet is a captured (or synthesized) TCP/IPv4 packet. Payload holds the
// TCP payload; most corpora (like MAWI) strip payload bytes but preserve the
// original lengths, which PayloadLen captures independently.
type Packet struct {
	Timestamp time.Time
	IP        IPv4Header
	TCP       TCPHeader

	// Payload is the TCP payload actually present in the capture.
	Payload []byte

	// PayloadLen is the TCP payload length implied by the IP total length
	// (TotalLen - IP header - TCP header). For payload-stripped captures it
	// can exceed len(Payload). Attacks that forge length fields leave this
	// as the original "claimed" value.
	PayloadLen int
}

// Clone returns a deep copy of the packet; attack strategies mutate clones so
// the benign original survives. Like a decoded packet, the copy carries its
// option list and option bytes in its own allocation, the list and each
// Data capacity-limited to itself.
func (p *Packet) Clone() *Packet {
	size := len(p.IP.Options)
	for _, o := range p.TCP.Options {
		size += len(o.Data)
	}
	q, opts, buf := newPacket(len(p.TCP.Options), size)
	*q = *p
	q.Payload = append([]byte(nil), p.Payload...)
	q.IP.Options, buf = carve(buf, p.IP.Options)
	for i, o := range p.TCP.Options {
		opts[i].Kind = o.Kind
		opts[i].Data, buf = carve(buf, o.Data)
	}
	q.TCP.Options = opts
	return q
}

// FindOption returns the first option with the given kind, or nil.
func (h *TCPHeader) FindOption(kind uint8) *Option {
	for i := range h.Options {
		if h.Options[i].Kind == kind {
			return &h.Options[i]
		}
	}
	return nil
}

// RemoveOption deletes every option of the given kind and reports whether
// any was removed.
func (h *TCPHeader) RemoveOption(kind uint8) bool {
	out := h.Options[:0]
	removed := false
	for _, o := range h.Options {
		if o.Kind == kind {
			removed = true
			continue
		}
		out = append(out, o)
	}
	h.Options = out
	return removed
}

// String summarises the packet for logs and test failures.
func (p *Packet) String() string {
	return fmt.Sprintf("%d.%d.%d.%d:%d > %d.%d.%d.%d:%d [%s] seq=%d ack=%d win=%d len=%d",
		p.IP.SrcIP[0], p.IP.SrcIP[1], p.IP.SrcIP[2], p.IP.SrcIP[3], p.TCP.SrcPort,
		p.IP.DstIP[0], p.IP.DstIP[1], p.IP.DstIP[2], p.IP.DstIP[3], p.TCP.DstPort,
		p.TCP.Flags, p.TCP.Seq, p.TCP.Ack, p.TCP.Window, p.PayloadLen)
}
