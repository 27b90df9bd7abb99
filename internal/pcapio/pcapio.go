// Package pcapio reads and writes classic libpcap capture files, the input
// format CLAP consumes (the paper operates on MAWI PCAP archives).
//
// Both byte orders and both timestamp precisions (microsecond magic
// 0xa1b2c3d4 and nanosecond magic 0xa1b23c4d) are supported for reading;
// writing always uses native-order microsecond files. Link types
// LINKTYPE_ETHERNET (1) and LINKTYPE_RAW (101) are understood; Ethernet
// frames are unwrapped to their IP payload on read and synthesized with
// fixed MAC addresses on write.
package pcapio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"clap/internal/packet"
)

// Link-layer types from the tcpdump registry.
const (
	LinkTypeEthernet = 1
	LinkTypeRaw      = 101
)

const (
	magicMicros        = 0xa1b2c3d4
	magicMicrosSwapped = 0xd4c3b2a1
	magicNanos         = 0xa1b23c4d
	magicNanosSwapped  = 0x4d3cb2a1

	etherTypeIPv4 = 0x0800
	etherHdrLen   = 14
)

// Errors surfaced by the reader.
var (
	ErrBadMagic = errors.New("pcapio: unrecognized magic number")
	ErrLinkType = errors.New("pcapio: unsupported link type")
	// ErrOversizeRecord reports a record header whose capture length
	// exceeds maxRecordLen. Such a header is corruption (no real frame
	// approaches 1 MiB), and must be rejected before the body
	// allocation: a crafted header in a snaplen-0 capture could
	// otherwise demand up to 4 GiB.
	ErrOversizeRecord = errors.New("pcapio: record capture length exceeds sanity bound")
)

// maxRecordLen bounds a single record's capture length, independently of
// the file's declared snaplen (snaplen 0 — emitted by some writers —
// must not mean "unbounded allocation").
const maxRecordLen = 1 << 20

// Record is one captured frame with its metadata.
type Record struct {
	Timestamp time.Time
	// Data holds the raw IP bytes (link layer already stripped).
	Data []byte
	// OrigLen is the original on-the-wire length of the IP portion, which
	// exceeds len(Data) for snap-length- or payload-truncated captures.
	OrigLen int
}

// Reader decodes a pcap stream.
type Reader struct {
	r        *bufio.Reader
	order    binary.ByteOrder
	nanos    bool
	linkType uint32
	snapLen  uint32
	hdr      [16]byte // the record header being read
	buf      []byte   // ReadPacket's frame buffer, reused from record to record
}

// NewReader parses the global header and prepares to iterate records.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcapio: reading global header: %w", err)
	}
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	rd := &Reader{r: br}
	switch magic {
	case magicMicros:
		rd.order = binary.LittleEndian
	case magicNanos:
		rd.order, rd.nanos = binary.LittleEndian, true
	case magicMicrosSwapped:
		rd.order = binary.BigEndian
	case magicNanosSwapped:
		rd.order, rd.nanos = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("%w: %#x", ErrBadMagic, magic)
	}
	rd.snapLen = rd.order.Uint32(hdr[16:20])
	rd.linkType = rd.order.Uint32(hdr[20:24])
	if rd.linkType != LinkTypeEthernet && rd.linkType != LinkTypeRaw {
		return nil, fmt.Errorf("%w: %d", ErrLinkType, rd.linkType)
	}
	return rd, nil
}

// LinkType returns the capture's link-layer type.
func (r *Reader) LinkType() uint32 { return r.linkType }

// Next returns the next record, or io.EOF at end of stream. The record's
// Data is the caller's to keep: every call reads into a buffer of its own.
func (r *Reader) Next() (Record, error) {
	return r.next(false)
}

// next reads one record, into the Reader's own buffer when reuse is set —
// Data is then only good until the next read — and into a fresh one
// otherwise.
func (r *Reader) next(reuse bool) (Record, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Record{}, io.EOF
		}
		return Record{}, err
	}
	sec := r.order.Uint32(r.hdr[0:4])
	frac := r.order.Uint32(r.hdr[4:8])
	capLen := r.order.Uint32(r.hdr[8:12])
	origLen := r.order.Uint32(r.hdr[12:16])
	if capLen > maxRecordLen {
		return Record{}, fmt.Errorf("%w: %d", ErrOversizeRecord, capLen)
	}
	var data []byte
	if !reuse {
		data = make([]byte, capLen)
	} else {
		if uint32(cap(r.buf)) < capLen {
			r.buf = make([]byte, capLen)
		}
		data = r.buf[:capLen]
	}
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Record{}, fmt.Errorf("pcapio: truncated record body: %w", err)
	}
	nsec := int64(frac)
	if !r.nanos {
		nsec *= 1000
	}
	rec := Record{Timestamp: time.Unix(int64(sec), nsec), Data: data, OrigLen: int(origLen)}
	if r.linkType == LinkTypeEthernet {
		if len(rec.Data) < etherHdrLen {
			return Record{}, fmt.Errorf("pcapio: ethernet frame of %d bytes", len(rec.Data))
		}
		etherType := binary.BigEndian.Uint16(rec.Data[12:14])
		if etherType != etherTypeIPv4 {
			// Signal non-IP frames with an empty payload; callers skip them.
			rec.Data = nil
			rec.OrigLen = 0
			return rec, nil
		}
		rec.Data = rec.Data[etherHdrLen:]
		rec.OrigLen -= etherHdrLen
		if rec.OrigLen < len(rec.Data) {
			// A frame whose claimed wire length is shorter than the
			// Ethernet header (or than the captured bytes) would yield a
			// negative or undersized OrigLen downstream.
			rec.OrigLen = len(rec.Data)
		}
	}
	return rec, nil
}

// NextBuffered reports whether the next record, header and body, is
// wholly in the read buffer, so that reading it cannot touch the
// underlying reader and therefore cannot block on it. It peeks at the
// record header's capture length without consuming anything. A live
// ingest loop uses it to hand off what it has decoded before a read that
// might wait on a quiet feed.
func (r *Reader) NextBuffered() bool {
	n := r.r.Buffered()
	if n < len(r.hdr) {
		return false
	}
	hdr, _ := r.r.Peek(len(r.hdr)) // within Buffered: Peek does not read
	return uint64(n) >= uint64(len(r.hdr))+uint64(r.order.Uint32(hdr[8:12]))
}

// ReadPacket reads the next record and decodes it: the packet with its
// capture timestamp, or nil for a record that is not a decodable TCP/IPv4
// packet (non-IP frames, other protocols, and the junk real backbone traces
// contain), which callers count and skip. The frame is read into a buffer
// the Reader reuses — packet.Decode copies what it keeps — so a record
// costs what its packet costs. io.EOF ends the stream.
func (r *Reader) ReadPacket() (*packet.Packet, error) {
	rec, err := r.next(true)
	if err != nil {
		return nil, err
	}
	if len(rec.Data) == 0 {
		return nil, nil
	}
	p, derr := packet.Decode(rec.Data)
	if derr != nil {
		return nil, nil
	}
	p.Timestamp = rec.Timestamp
	return p, nil
}

// ReadPackets drains the stream, decoding every TCP/IPv4 record into a
// packet, with the count of records skipped as undecodable.
func ReadPackets(r io.Reader) (pkts []*packet.Packet, skipped int, err error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, 0, err
	}
	for {
		p, err := rd.ReadPacket()
		if err == io.EOF {
			return pkts, skipped, nil
		}
		if err != nil {
			return pkts, skipped, err
		}
		if p == nil {
			skipped++
			continue
		}
		pkts = append(pkts, p)
	}
}

// Writer emits a pcap file.
type Writer struct {
	w        *bufio.Writer
	linkType uint32
	wroteHdr bool
}

// NewWriter creates a pcap writer with the given link type
// (LinkTypeEthernet or LinkTypeRaw).
func NewWriter(w io.Writer, linkType uint32) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), linkType: linkType}
}

func (w *Writer) writeHeader() error {
	var hdr [24]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:4], magicMicros)
	le.PutUint16(hdr[4:6], 2) // version major
	le.PutUint16(hdr[6:8], 4) // version minor
	le.PutUint32(hdr[16:20], 262144)
	le.PutUint32(hdr[20:24], w.linkType)
	_, err := w.w.Write(hdr[:])
	return err
}

// fixed synthetic MACs for Ethernet framing.
var (
	srcMAC = [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	dstMAC = [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x02}
)

// WriteRaw writes one record of raw IP bytes. origLen should be the claimed
// on-the-wire IP length (>= len(data) for stripped captures).
func (w *Writer) WriteRaw(ts time.Time, data []byte, origLen int) error {
	if !w.wroteHdr {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.wroteHdr = true
	}
	if origLen < len(data) {
		origLen = len(data)
	}
	frame := data
	if w.linkType == LinkTypeEthernet {
		frame = make([]byte, etherHdrLen+len(data))
		copy(frame[0:6], dstMAC[:])
		copy(frame[6:12], srcMAC[:])
		binary.BigEndian.PutUint16(frame[12:14], etherTypeIPv4)
		copy(frame[etherHdrLen:], data)
		origLen += etherHdrLen
	}
	var hdr [16]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:4], uint32(ts.Unix()))
	le.PutUint32(hdr[4:8], uint32(ts.Nanosecond()/1000))
	le.PutUint32(hdr[8:12], uint32(len(frame)))
	le.PutUint32(hdr[12:16], uint32(origLen))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.w.Write(frame)
	return err
}

// WritePacket encodes and writes a packet. The record's original length
// reflects the packet's claimed IP total length so stripped payloads survive
// a round trip.
func (w *Writer) WritePacket(p *packet.Packet) error {
	raw, err := p.Encode(packet.SerializeOptions{})
	if err != nil {
		return err
	}
	orig := int(p.IP.TotalLen)
	if orig < len(raw) {
		orig = len(raw)
	}
	return w.WriteRaw(p.Timestamp, raw, orig)
}

// Flush commits buffered output. Call once after the last record.
func (w *Writer) Flush() error {
	if !w.wroteHdr {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.wroteHdr = true
	}
	return w.w.Flush()
}
