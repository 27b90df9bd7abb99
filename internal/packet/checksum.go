package packet

// sum16 is the RFC 1071 running sum: 16-bit big-endian words added into a
// 32-bit accumulator, end-around carry folded in at the end. It is the one
// checksum implementation in the package — Checksum, Encode, FixChecksums
// and the two validators all feed it — and it takes its input in pieces
// (header fields, option bytes, payload), so nothing is serialised just to
// be summed. The accumulator wraps exactly as a plain uint32 sum over the
// contiguous bytes would; no IPv4 datagram is long enough to reach that.
type sum16 struct {
	acc uint32
	// odd records that an odd number of bytes has gone in: the next byte
	// is the low half of a word.
	odd bool
}

// word adds one 16-bit word. The sum must be at an even offset.
func (s *sum16) word(w uint16) { s.acc += uint32(w) }

// write adds bytes at the current offset.
func (s *sum16) write(b []byte) {
	if len(b) == 0 {
		return
	}
	if s.odd {
		s.acc += uint32(b[0])
		b = b[1:]
		s.odd = false
	}
	for ; len(b) >= 2; b = b[2:] {
		s.acc += uint32(b[0])<<8 | uint32(b[1])
	}
	if len(b) == 1 {
		s.acc += uint32(b[0]) << 8
		s.odd = true
	}
}

// skip advances the offset over n zero bytes: they add nothing, but an odd
// run flips which half of a word the next byte lands in.
func (s *sum16) skip(n int) {
	if n&1 == 1 {
		s.odd = !s.odd
	}
}

// fold returns the one's-complement checksum of everything added so far.
func (s *sum16) fold() uint16 {
	sum := s.acc
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// Checksum computes the RFC 1071 internet checksum over data.
func Checksum(data []byte) uint16 {
	var s sum16
	s.write(data)
	return s.fold()
}

// pseudoHeader starts a TCP checksum with the IPv4 pseudo-header for a
// segment of segLen bytes (the length field is 16 bits wide and truncates
// like the wire's).
func pseudoHeader(src, dst [4]byte, segLen int) sum16 {
	var s sum16
	s.write(src[:])
	s.write(dst[:])
	s.word(ProtoTCP)
	s.word(uint16(segLen))
	return s
}

// ipHeaderSum is the checksum of the IP header as Encode lays it out, with
// the checksum field taken as zero. Padding is zero and adds nothing, so the
// fixed fields and the stored option bytes are the whole sum.
func (p *Packet) ipHeaderSum() uint16 {
	var hdr [20]byte
	putIPv4(hdr[:], &p.IP)
	hdr[10], hdr[11] = 0, 0
	var s sum16
	s.write(hdr[:])
	s.write(p.IP.Options)
	return s.fold()
}

// tcpSegmentSum is the checksum of the TCP segment as it would appear on
// the wire, pseudo-header included, with the checksum field taken as zero.
//
// Payload-stripped captures (the MAWI convention this corpus follows) keep
// the claimed segment length in the IP total length while carrying no
// payload bytes, so the segment is the header plus the stored payload,
// zero-padded out to the claimed length: the padding adds nothing to the
// sum and only the claimed length enters the pseudo-header. Any header
// corruption, stored-checksum corruption or length forgery therefore flips
// validity.
//
// The segment starts where the stored IHL says the IP header ends. An IHL
// below five words cannot say, and real contents do instead — counted
// without the padding Encode adds, so IP options that are not a 4-byte
// multiple leave pad bytes of that padding at the front of the segment, and
// the "checksum field" zeroed is whatever sits at segment offset 16.
func (p *Packet) tcpSegmentSum(l wireLayout) uint16 {
	ipHdrLen := int(p.IP.IHL) * 4
	if ipHdrLen < 20 {
		ipHdrLen = 20 + len(p.IP.Options)
	}
	pad := l.ipHdrLen - ipHdrLen
	segLen := pad + l.tcpHdrLen + len(p.Payload)
	if claimed := int(p.IP.TotalLen) - ipHdrLen; claimed > segLen {
		segLen = claimed
	}
	s := pseudoHeader(p.IP.SrcIP, p.IP.DstIP, segLen)
	var hdr [24]byte
	putTCP(hdr[pad:], &p.TCP)
	hdr[16], hdr[17] = 0, 0
	s.write(hdr[:pad+20])
	var buf [maxOptionBytes]byte
	opts := appendOptions(buf[:0], p.TCP.Options)
	s.write(opts)
	s.skip(l.tcpHdrLen - 20 - len(opts))
	s.write(p.Payload)
	return s.fold()
}

// FixChecksums computes correct IP and TCP checksums for the packet as it
// would appear on the wire — honouring the claimed IP total length with
// zero padding for stripped payload, the same convention TCPChecksumValid
// verifies — and stores them in the header fields. Synthetic traffic calls
// this once after construction; attacks corrupt other fields afterwards
// (and may call it again when the strategy wants checksums to stay valid).
func (p *Packet) FixChecksums() error {
	l, err := p.layout()
	if err != nil {
		return err
	}
	p.IP.Checksum = p.ipHeaderSum()
	p.TCP.Checksum = p.tcpSegmentSum(l)
	return nil
}

// IPChecksumValid re-derives the IP header checksum and compares it with the
// stored value. A packet Encode refuses (ErrOptionSpace) has no wire form
// and is never valid.
func (p *Packet) IPChecksumValid() bool {
	if _, err := p.layout(); err != nil {
		return false
	}
	return p.ipHeaderSum() == p.IP.Checksum
}

// TCPChecksumValid re-derives the TCP checksum (pseudo-header included) and
// compares it with the stored value; see tcpSegmentSum for the convention.
func (p *Packet) TCPChecksumValid() bool {
	l, err := p.layout()
	if err != nil {
		return false
	}
	return p.tcpSegmentSum(l) == p.TCP.Checksum
}
