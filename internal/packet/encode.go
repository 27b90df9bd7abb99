package packet

import "fmt"

// SerializeOptions controls encoding, mirroring gopacket's SerializeOptions.
// With both fields false the stored header values are written verbatim,
// which is what evasion strategies rely on to emit deliberately broken
// packets.
type SerializeOptions struct {
	// FixLengths recomputes IHL, DataOffset and TotalLen from actual
	// contents before writing.
	FixLengths bool
	// ComputeChecksums recomputes and stores the IP and TCP checksums.
	ComputeChecksums bool
}

// maxOptionBytes is the option space of a well-formed IPv4 or TCP header:
// fifteen 32-bit words less the five fixed ones.
const maxOptionBytes = 40

// appendOptions appends the wire form of parsed TCP options to dst, without
// padding.
func appendOptions(dst []byte, opts []Option) []byte {
	for _, o := range opts {
		switch o.Kind {
		case OptEndOfList, OptNOP:
			dst = append(dst, o.Kind)
		default:
			dst = append(dst, o.Kind, byte(2+len(o.Data)))
			dst = append(dst, o.Data...)
		}
	}
	return dst
}

// wireLayout is where Encode puts a packet's two headers. A stored IHL or
// Data Offset below five words cannot drive the layout, so real contents do
// and the bogus value only rides in its field; a stored length that is
// usable but too small for the options is ErrOptionSpace.
type wireLayout struct {
	ipHdrLen, tcpHdrLen int
}

// layoutFor resolves the header lengths for the given IHL and Data Offset
// over ipOpts and tcpOpts option bytes (each padded to a 4-byte multiple).
func layoutFor(ihl, dataOffset uint8, ipOpts, tcpOpts int) (wireLayout, error) {
	l := wireLayout{ipHdrLen: int(ihl) * 4, tcpHdrLen: int(dataOffset) * 4}
	if l.ipHdrLen < 20 {
		l.ipHdrLen = 20 + ipOpts
	}
	if l.ipHdrLen < 20+ipOpts {
		return l, fmt.Errorf("ipv4 encode: %w: ihl=%d options=%d", ErrOptionSpace, ihl, ipOpts)
	}
	if l.tcpHdrLen < 20 {
		l.tcpHdrLen = 20 + tcpOpts
	}
	if l.tcpHdrLen < 20+tcpOpts {
		return l, fmt.Errorf("tcp encode: %w: offset=%d options=%d", ErrOptionSpace, dataOffset, tcpOpts)
	}
	return l, nil
}

func pad4(n int) int { return (n + 3) &^ 3 }

// paddedOptionLens returns the IP and TCP option sizes on the wire.
func (p *Packet) paddedOptionLens() (ipOpts, tcpOpts int) {
	for _, o := range p.TCP.Options {
		tcpOpts += o.Len()
	}
	return pad4(len(p.IP.Options)), pad4(tcpOpts)
}

// layout is the layout Encode gives the packet with its stored lengths.
func (p *Packet) layout() (wireLayout, error) {
	ipOpts, tcpOpts := p.paddedOptionLens()
	return layoutFor(p.IP.IHL, p.TCP.DataOffset, ipOpts, tcpOpts)
}

// putIPv4 writes the 20 fixed bytes of the IPv4 header.
func putIPv4(b []byte, ip *IPv4Header) {
	_ = b[19]
	b[0] = ip.Version<<4 | ip.IHL&0x0f
	b[1] = ip.TOS
	be.PutUint16(b[2:4], ip.TotalLen)
	be.PutUint16(b[4:6], ip.ID)
	flagsFrag := ip.FragOffset & 0x1fff
	if ip.Reserved {
		flagsFrag |= 0x8000
	}
	if ip.DontFrag {
		flagsFrag |= 0x4000
	}
	if ip.MoreFrag {
		flagsFrag |= 0x2000
	}
	be.PutUint16(b[6:8], flagsFrag)
	b[8] = ip.TTL
	b[9] = ip.Protocol
	be.PutUint16(b[10:12], ip.Checksum)
	copy(b[12:16], ip.SrcIP[:])
	copy(b[16:20], ip.DstIP[:])
}

// putTCP writes the 20 fixed bytes of the TCP header.
func putTCP(b []byte, tcp *TCPHeader) {
	_ = b[19]
	be.PutUint16(b[0:2], tcp.SrcPort)
	be.PutUint16(b[2:4], tcp.DstPort)
	be.PutUint32(b[4:8], tcp.Seq)
	be.PutUint32(b[8:12], tcp.Ack)
	be.PutUint16(b[12:14], uint16(tcp.DataOffset)<<12|uint16(tcp.Reserved&0x07)<<9|uint16(tcp.Flags)&0x01ff)
	be.PutUint16(b[14:16], tcp.Window)
	be.PutUint16(b[16:18], tcp.Checksum)
	be.PutUint16(b[18:20], tcp.Urgent)
}

// Encode serializes the packet to raw IPv4 bytes.
func (p *Packet) Encode(opt SerializeOptions) ([]byte, error) {
	ipOpts, tcpOpts := p.paddedOptionLens()
	ip := p.IP
	tcp := p.TCP
	if opt.FixLengths {
		ip.IHL = uint8((20 + ipOpts) / 4)
		tcp.DataOffset = uint8((20 + tcpOpts) / 4)
		ip.TotalLen = uint16(int(ip.IHL)*4 + int(tcp.DataOffset)*4 + len(p.Payload))
	}
	l, err := layoutFor(ip.IHL, tcp.DataOffset, ipOpts, tcpOpts)
	if err != nil {
		return nil, err
	}

	// make zeroes the buffer, which is the option padding and whatever a
	// header length beyond the options leaves.
	buf := make([]byte, l.ipHdrLen+l.tcpHdrLen+len(p.Payload))
	putIPv4(buf, &ip)
	copy(buf[20:l.ipHdrLen], ip.Options)
	t := buf[l.ipHdrLen:]
	putTCP(t, &tcp)
	appendOptions(t[20:20], tcp.Options)
	copy(t[l.tcpHdrLen:], p.Payload)

	if opt.ComputeChecksums {
		be.PutUint16(buf[10:12], 0)
		be.PutUint16(buf[10:12], Checksum(buf[:l.ipHdrLen]))
		be.PutUint16(t[16:18], 0)
		s := pseudoHeader(ip.SrcIP, ip.DstIP, len(t))
		s.write(t)
		be.PutUint16(t[16:18], s.fold())
	}
	return buf, nil
}
