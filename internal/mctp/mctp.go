// Package mctp implements the Management Component Transport Protocol
// carried over PCIe vendor-defined messages — the out-of-band channel that
// lets cloud operators manage BM-Store without touching the tenant's host
// OS (§IV-D of the paper). It provides packetization/reassembly with
// SOM/EOM framing, sequence checking and message tags, plus the NVMe-MI
// message layer the BMS-Controller speaks.
package mctp

import "fmt"

// Transport constants.
const (
	HeaderVersion = 0x01
	// MTU is the baseline MCTP transmission unit: 64 bytes of payload per
	// packet (the PCIe VDM binding's minimum).
	MTU = 64
	// headerLen is the MCTP transport header length.
	headerLen = 4
)

// Flag bits of header byte 3.
const (
	flagSOM    = 0x80
	flagEOM    = 0x40
	seqShift   = 4
	seqMask    = 0x30
	tagOwner   = 0x08
	msgTagMask = 0x07
)

// Packet is one decoded MCTP packet.
type Packet struct {
	Dest, Src uint8
	SOM, EOM  bool
	Seq       uint8 // 2-bit packet sequence
	Tag       uint8 // 3-bit message tag
	TO        bool  // tag owner
	Payload   []byte
}

// Encode serialises the packet (header + payload).
func (pk *Packet) Encode() []byte {
	b := make([]byte, headerLen+len(pk.Payload))
	b[0] = HeaderVersion
	b[1] = pk.Dest
	b[2] = pk.Src
	f := pk.Tag & msgTagMask
	if pk.SOM {
		f |= flagSOM
	}
	if pk.EOM {
		f |= flagEOM
	}
	if pk.TO {
		f |= tagOwner
	}
	f |= (pk.Seq & 0x3) << seqShift
	b[3] = f
	copy(b[headerLen:], pk.Payload)
	return b
}

// DecodePacket parses a raw packet.
func DecodePacket(b []byte) (Packet, error) {
	if len(b) < headerLen {
		return Packet{}, fmt.Errorf("mctp: packet shorter than header (%d bytes)", len(b))
	}
	if b[0]&0x0F != HeaderVersion {
		return Packet{}, fmt.Errorf("mctp: unsupported header version %#x", b[0])
	}
	f := b[3]
	return Packet{
		Dest: b[1], Src: b[2],
		SOM: f&flagSOM != 0, EOM: f&flagEOM != 0,
		Seq:     f & seqMask >> seqShift,
		Tag:     f & msgTagMask,
		TO:      f&tagOwner != 0,
		Payload: append([]byte(nil), b[headerLen:]...),
	}, nil
}

// Endpoint is one MCTP endpoint: it fragments outbound messages and
// reassembles inbound ones. Not safe for concurrent use outside the
// simulation kernel.
type Endpoint struct {
	eid     uint8
	send    func(raw []byte)
	handler func(src uint8, msgType uint8, body []byte)
	rxFault func() bool
	reasm   map[reasmKey]*partial
	nextTag uint8
	// Dropped counts packets discarded for protocol violations; the
	// paper's §VI-B mentions hardening MCTP against exactly these.
	Dropped int
}

type reasmKey struct {
	src uint8
	tag uint8
}

type partial struct {
	buf     []byte
	nextSeq uint8
}

// NewEndpoint creates an endpoint with the given endpoint ID that
// transmits raw packets through send.
func NewEndpoint(eid uint8, send func(raw []byte)) *Endpoint {
	return &Endpoint{eid: eid, send: send, reasm: make(map[reasmKey]*partial)}
}

// SetHandler registers the complete-message callback. body starts with the
// one-byte MCTP message type.
func (ep *Endpoint) SetHandler(fn func(src uint8, msgType uint8, body []byte)) {
	ep.handler = fn
}

// SetRxFault installs a receive-path fault hook: a packet for which fn
// returns true is discarded before decoding, exactly as if the wire ate it.
// This keeps the package free of simulation dependencies — the endpoint's
// owner bridges to the rig's fault injector. Pass nil to remove.
func (ep *Endpoint) SetRxFault(fn func() bool) { ep.rxFault = fn }

// Send fragments one message (message-type byte plus payload) to dst.
func (ep *Endpoint) Send(dst uint8, msgType uint8, payload []byte) {
	body := append([]byte{msgType}, payload...)
	tag := ep.nextTag
	ep.nextTag = (ep.nextTag + 1) & msgTagMask
	seq := uint8(0)
	for off := 0; ; off += MTU {
		end := off + MTU
		if end > len(body) {
			end = len(body)
		}
		pk := Packet{
			Dest: dst, Src: ep.eid,
			SOM: off == 0, EOM: end == len(body),
			Seq: seq & 0x3, Tag: tag, TO: true,
			Payload: body[off:end],
		}
		ep.send(pk.Encode())
		seq++
		if end == len(body) {
			return
		}
	}
}

// Receive feeds one raw packet into reassembly; complete messages invoke
// the handler.
func (ep *Endpoint) Receive(raw []byte) {
	if ep.rxFault != nil && ep.rxFault() {
		ep.Dropped++
		return
	}
	pk, err := DecodePacket(raw)
	if err != nil {
		ep.Dropped++
		return
	}
	if pk.Dest != ep.eid {
		ep.Dropped++
		return
	}
	k := reasmKey{pk.Src, pk.Tag}
	pr := ep.reasm[k]
	if pk.SOM {
		pr = &partial{nextSeq: pk.Seq}
		ep.reasm[k] = pr
	}
	if pr == nil || pk.Seq != pr.nextSeq&0x3 {
		// Out-of-order or headless fragment: drop the whole assembly, as
		// the MCTP spec requires.
		delete(ep.reasm, k)
		ep.Dropped++
		return
	}
	pr.buf = append(pr.buf, pk.Payload...)
	pr.nextSeq = (pr.nextSeq + 1) & 0x3
	if !pk.EOM {
		return
	}
	delete(ep.reasm, k)
	if len(pr.buf) == 0 {
		ep.Dropped++
		return
	}
	if ep.handler != nil {
		ep.handler(pk.Src, pr.buf[0], pr.buf[1:])
	}
}
