// Package features implements the Table 7 feature schema: the 32 raw TCP/IP
// header features the RNN consumes, plus the 19 amplification features
// (out-of-range indicators and the payload-length equivalence relation) that
// complete the 51-dimensional packet-feature vector used in context
// profiles. Numeric features are min-max scaled with bounds fitted on benign
// training traffic; the same fitted bounds drive the out-of-range
// indicators.
package features

import (
	"math"
	"time"

	"clap/internal/flow"
	"clap/internal/packet"
)

// Feature vector layout. The paper's Table 7 indices are 1-based; ours are
// 0-based but keep the same grouping: TCP features, IP features, then
// amplification features.
const (
	FDirection = iota
	FSeqRel
	FAckRel
	FDataOffset
	FFlagFIN
	FFlagSYN
	FFlagRST
	FFlagPSH
	FFlagACK
	FFlagURG
	FFlagECE
	FFlagCWR
	FFlagNS
	FWindow
	FTCPChecksumOK
	FUrgentPtr
	FPayloadLen
	FMSS
	FTSValRel
	FTSecrRel
	FWScale
	FUTO
	FMD5OK
	FInterArrival
	FFrameTime
	FIPTotalLen
	FTTL
	FIPHeaderLen
	FIPChecksumOK
	FIPVersion
	FTOS
	FHasIPOptions

	// NumRNN is the size of the RNN input: the raw header features #1-#32
	// of Table 7 (amplification features are excluded from RNN training).
	NumRNN
)

// Amplification feature indices.
const (
	// 13 TCP out-of-range indicators occupy [AmpTCPStart, AmpTCPStart+13).
	AmpTCPStart = NumRNN
	// 5 IP out-of-range indicators occupy [AmpIPStart, AmpIPStart+5).
	AmpIPStart = AmpTCPStart + 13
	// FPayloadEquiv is the equivalence-relation feature: TCP payload length
	// must equal IP total length − IP header length − TCP data offset.
	FPayloadEquiv = AmpIPStart + 5

	// NumPacket is the full packet-feature dimensionality (Table 7 #1-#51),
	// the input size of Baseline #1's autoencoder (Table 6).
	NumPacket = FPayloadEquiv + 1
)

// numericTCP lists the numeric TCP feature slots monitored for
// out-of-range amplification (13 features → indicators 32..44).
var numericTCP = [13]int{
	FSeqRel, FAckRel, FDataOffset, FWindow, FUrgentPtr, FPayloadLen,
	FMSS, FTSValRel, FTSecrRel, FWScale, FUTO, FInterArrival, FFrameTime,
}

// numericIP lists the numeric IP feature slots monitored for out-of-range
// amplification (5 features → indicators 45..49).
var numericIP = [5]int{FIPTotalLen, FTTL, FIPHeaderLen, FIPVersion, FTOS}

// Kind classifies a feature for schema introspection (Table 7's "Type").
type Kind uint8

// Feature kinds.
const (
	Binary Kind = iota
	Numeric
)

// Info describes one feature slot.
type Info struct {
	Index int
	Name  string
	Kind  Kind
	Group string // "TCP", "IP", or "Amplification"
	// RNNInput marks features fed to the RNN (Table 7 #1-#32).
	RNNInput bool
}

// Schema returns the full 51-entry feature description, the live equivalent
// of Table 7.
func Schema() []Info {
	base := []Info{
		{FDirection, "Packet direction", Binary, "TCP", true},
		{FSeqRel, "SEQ number (incremental, signed log)", Numeric, "TCP", true},
		{FAckRel, "ACK number (incremental, signed log)", Numeric, "TCP", true},
		{FDataOffset, "Data Offset", Numeric, "TCP", true},
		{FFlagFIN, "Flag FIN (one-hot)", Binary, "TCP", true},
		{FFlagSYN, "Flag SYN (one-hot)", Binary, "TCP", true},
		{FFlagRST, "Flag RST (one-hot)", Binary, "TCP", true},
		{FFlagPSH, "Flag PSH (one-hot)", Binary, "TCP", true},
		{FFlagACK, "Flag ACK (one-hot)", Binary, "TCP", true},
		{FFlagURG, "Flag URG (one-hot)", Binary, "TCP", true},
		{FFlagECE, "Flag ECE (one-hot)", Binary, "TCP", true},
		{FFlagCWR, "Flag CWR (one-hot)", Binary, "TCP", true},
		{FFlagNS, "Flag NS (one-hot)", Binary, "TCP", true},
		{FWindow, "Window Size (log)", Numeric, "TCP", true},
		{FTCPChecksumOK, "Checksum validity", Binary, "TCP", true},
		{FUrgentPtr, "Urgent Pointer (log)", Numeric, "TCP", true},
		{FPayloadLen, "Payload Length (log)", Numeric, "TCP", true},
		{FMSS, "Option: Maximum Segment Size (log)", Numeric, "TCP", true},
		{FTSValRel, "Option: Timestamp Value (relative, signed log)", Numeric, "TCP", true},
		{FTSecrRel, "Option: Timestamp Echo Reply (relative, signed log)", Numeric, "TCP", true},
		{FWScale, "Option: Window Scale", Numeric, "TCP", true},
		{FUTO, "Option: User Timeout (log)", Numeric, "TCP", true},
		{FMD5OK, "Option: MD5 Header Validity", Binary, "TCP", true},
		{FInterArrival, "TCP Timestamp (inter-arrival, log µs)", Numeric, "TCP", true},
		{FFrameTime, "Frame Timestamp (offset, log µs)", Numeric, "TCP", true},
		{FIPTotalLen, "IP Length (log)", Numeric, "IP", true},
		{FTTL, "Time-To-Live", Numeric, "IP", true},
		{FIPHeaderLen, "IP Header Length", Numeric, "IP", true},
		{FIPChecksumOK, "IP Checksum validity", Binary, "IP", true},
		{FIPVersion, "IP Version", Numeric, "IP", true},
		{FTOS, "Type of Service", Numeric, "IP", true},
		{FHasIPOptions, "Existence of non-standard IP options", Binary, "IP", true},
	}
	for i, slot := range numericTCP {
		base = append(base, Info{AmpTCPStart + i,
			"Out-of-Range: " + base[slot].Name, Binary, "Amplification", false})
	}
	for i, slot := range numericIP {
		base = append(base, Info{AmpIPStart + i,
			"Out-of-Range: " + base[slot].Name, Binary, "Amplification", false})
	}
	base = append(base, Info{FPayloadEquiv,
		"TCP Payload Length correctness (len = IP total − IP hdr − data offset)",
		Binary, "Amplification", false})
	return base
}

// slog is the signed logarithm used to compress wide-range counters while
// preserving sign (sequence deltas can legitimately be negative).
func slog(x float64) float64 {
	if x >= 0 {
		return math.Log1p(x)
	}
	return -math.Log1p(-x)
}

// connState carries the per-connection reference points (ISNs, first
// timestamps) that relative features need.
type connState struct {
	isnSet [2]bool
	isn    [2]uint32
	ts0Set [2]bool
	ts0    [2]uint32
	start  time.Time
	prev   time.Time
	began  bool
}

// ExtractRaw computes the unscaled 51-dim feature vectors for every packet
// of a connection. Out-of-range indicator slots are left at zero — they are
// filled by Profile.Vectorize once training bounds exist — while the
// equivalence feature, which needs no training data, is computed here.
func ExtractRaw(c *flow.Connection) [][]float64 {
	return extractRawInto(c, make([]float64, c.Len()*NumPacket), make([][]float64, c.Len()))
}

// extractRawInto is ExtractRaw over the caller's memory: slab (at least
// c.Len()·NumPacket values, contents ignored) holds the vectors back to
// back and rows (at least c.Len() headers) points at them. One slab for the
// whole train, never one per packet.
func extractRawInto(c *flow.Connection, slab []float64, rows [][]float64) [][]float64 {
	slab, rows = slab[:c.Len()*NumPacket], rows[:c.Len()]
	clear(slab)
	var st connState
	for i, p := range c.Packets {
		v := slab[i*NumPacket : (i+1)*NumPacket : (i+1)*NumPacket]
		st.packetRaw(v, p, c.Dirs[i])
		rows[i] = v
	}
	return rows
}

// flagSlots maps each TCP flag bit to its one-hot feature slot.
var flagSlots = [...]struct {
	bit  packet.Flags
	slot int
}{
	{packet.FIN, FFlagFIN}, {packet.SYN, FFlagSYN}, {packet.RST, FFlagRST},
	{packet.PSH, FFlagPSH}, {packet.ACK, FFlagACK}, {packet.URG, FFlagURG},
	{packet.ECE, FFlagECE}, {packet.CWR, FFlagCWR}, {packet.NS, FFlagNS},
}

// packetRaw fills v (length NumPacket, zeroed) with one packet's raw
// feature vector.
func (st *connState) packetRaw(v []float64, p *packet.Packet, dir flow.Direction) {
	d := int(dir)

	if !st.began {
		st.start = p.Timestamp
		st.prev = p.Timestamp
		st.began = true
	}
	if !st.isnSet[d] {
		st.isn[d] = p.TCP.Seq
		st.isnSet[d] = true
	}

	v[FDirection] = float64(d)
	v[FSeqRel] = slog(float64(int64(int32(p.TCP.Seq - st.isn[d]))))
	if p.TCP.Flags.Has(packet.ACK) {
		ack := p.TCP.Ack
		if st.isnSet[1-d] {
			v[FAckRel] = slog(float64(int64(int32(ack - st.isn[1-d]))))
		} else {
			v[FAckRel] = slog(float64(ack % 4096)) // mid-stream: bounded proxy
		}
	}
	v[FDataOffset] = float64(p.TCP.DataOffset)
	for _, f := range flagSlots {
		if p.TCP.Flags.Has(f.bit) {
			v[f.slot] = 1
		}
	}
	v[FWindow] = math.Log1p(float64(p.TCP.Window))
	if p.TCPChecksumValid() {
		v[FTCPChecksumOK] = 1
	}
	v[FUrgentPtr] = math.Log1p(float64(p.TCP.Urgent))
	v[FPayloadLen] = math.Log1p(float64(p.PayloadLen))
	if mss, ok := p.TCP.MSSVal(); ok {
		v[FMSS] = math.Log1p(float64(mss))
	}
	if tsval, tsecr, ok := p.TCP.TimestampVal(); ok {
		if !st.ts0Set[d] {
			st.ts0[d] = tsval
			st.ts0Set[d] = true
		}
		v[FTSValRel] = slog(float64(int64(int32(tsval - st.ts0[d]))))
		if st.ts0Set[1-d] && tsecr != 0 {
			v[FTSecrRel] = slog(float64(int64(int32(tsecr - st.ts0[1-d]))))
		}
	}
	if ws, ok := p.TCP.WScaleVal(); ok {
		v[FWScale] = float64(ws)
	}
	if uto, ok := p.TCP.UserTimeoutVal(); ok {
		v[FUTO] = math.Log1p(float64(uto))
	}
	// MD5 "validity": benign wide-area traffic does not carry MD5 headers,
	// so structural malformation *or* bare presence is the anomalous case.
	if p.TCP.FindOption(packet.OptMD5) == nil && p.TCP.MD5Valid() {
		v[FMD5OK] = 1
	}
	v[FInterArrival] = math.Log1p(float64(p.Timestamp.Sub(st.prev).Microseconds()))
	v[FFrameTime] = math.Log1p(float64(p.Timestamp.Sub(st.start).Microseconds()))
	st.prev = p.Timestamp

	v[FIPTotalLen] = math.Log1p(float64(p.IP.TotalLen))
	v[FTTL] = float64(p.IP.TTL)
	v[FIPHeaderLen] = float64(p.IP.IHL)
	if p.IPChecksumValid() {
		v[FIPChecksumOK] = 1
	}
	v[FIPVersion] = float64(p.IP.Version)
	v[FTOS] = float64(p.IP.TOS)
	if len(p.IP.Options) > 0 {
		v[FHasIPOptions] = 1
	}

	// Equivalence relation (Table 7 #51): claimed payload length must equal
	// IP total length − IP header bytes − TCP header bytes.
	if p.PayloadLen == int(p.IP.TotalLen)-p.IP.HeaderLen()-p.TCP.HeaderLen() {
		v[FPayloadEquiv] = 1
	}
}
