// Package pcie models the PCIe interconnect the BM-Store architecture lives
// on: full-duplex links with per-lane bandwidth and propagation latency,
// TLP framing overhead, posted register (doorbell) writes, device-initiated
// DMA, MSI-style interrupts, and vendor-defined messages (the MCTP
// transport).
//
// Topology is composed from Port values: a port's upstream side is any
// DMATarget, so a root complex, or a bridge such as the BMS-Engine that
// rewrites DMA addresses (the paper's DMA-request-routing mechanism), can
// sit above a device interchangeably. This is exactly the property that
// lets BM-Store splice itself between the host and the SSDs transparently.
package pcie

import (
	"fmt"

	"bmstore/internal/fault"
	"bmstore/internal/hostmem"
	"bmstore/internal/obs"
	"bmstore/internal/sim"
	"bmstore/internal/trace"
)

// FuncID identifies one PCIe function (PF or VF) of a device. The paper's
// global-PRP tag reserves 7 bits for it, so valid values are 0..127.
type FuncID uint8

// MaxFunctions is the number of functions addressable by the 7-bit global
// PRP function tag (4 PFs + 124 VFs in the paper's BMS-Engine).
const MaxFunctions = 128

// Gen3 lane payload rate: 8 GT/s with 128b/130b encoding, in bytes/second.
const LaneBytesPerSec = 984.6e6

// TLP framing constants: 256-byte max payload per TLP with ~26 bytes of
// header, sequence, LCRC and framing per packet.
const (
	MaxPayload = 256
	TLPHeader  = 26
)

// DRAMLatency is the host-memory access latency seen by inbound DMA.
const DRAMLatency = 90 * sim.Nanosecond

// WireBytes returns the number of bytes n bytes of payload occupy on the
// wire once split into TLPs.
func WireBytes(n int) int64 {
	if n <= 0 {
		return TLPHeader // a zero-length or header-only transaction
	}
	tlps := (n + MaxPayload - 1) / MaxPayload
	return int64(n) + int64(tlps)*TLPHeader
}

// Link is a full-duplex point-to-point PCIe link. Each direction has its
// own bandwidth pacer; Latency is the one-way propagation plus PHY delay.
type Link struct {
	env     *sim.Env
	toHost  *sim.Pacer // traffic flowing upstream (device -> root)
	toDev   *sim.Pacer // traffic flowing downstream (root -> device)
	Latency sim.Time

	// Name identifies the link to fault rules (fault.PCIeXfer targets).
	// Set it before traffic flows; testbeds name their links at build time.
	Name string

	// flt/tr are the fault injector and tracer cached at construction
	// (nil-safe, the usual observer discipline).
	flt *fault.Injector
	tr  *trace.Tracer

	// Per-direction wire-byte counters (nil-safe no-ops when metrics are
	// off); every reservation accounts its TLP framing too.
	mUp   *obs.Counter
	mDown *obs.Counter
}

// NewLink returns a Gen3 link with the given lane count.
func NewLink(env *sim.Env, lanes int, latency sim.Time) *Link {
	if lanes <= 0 {
		panic("pcie: link needs at least one lane")
	}
	bw := float64(lanes) * LaneBytesPerSec
	l := &Link{
		env:     env,
		toHost:  sim.NewPacer(env, bw),
		toDev:   sim.NewPacer(env, bw),
		Latency: latency,
		flt:     env.Faults(),
		tr:      env.Tracer(),
	}
	if met := env.Metrics(); met != nil {
		comp := met.Instance("pcie/link")
		l.mUp = comp.RateCounter("up_bytes")
		l.mDown = comp.RateCounter("down_bytes")
	}
	return l
}

// defaultReplayLatency is the extra completion delay of a transaction hit
// by a link-error replay when the rule specifies no Duration: the LTSSM
// recovery plus TLP retransmission cost, in the microsecond class.
const defaultReplayLatency = 1 * sim.Microsecond

// replayPenalty consults the fault injector for a link-error replay on one
// DMA transaction and returns the extra latency to add to its completion
// time (0 almost always). Injections are witnessed in the trace so faulted
// runs digest differently from clean ones.
func (l *Link) replayPenalty(n int) sim.Time {
	if l.flt == nil {
		return 0
	}
	r := l.flt.Hit(fault.PCIeXfer, l.Name, l.env.Now())
	if r == nil {
		return 0
	}
	extra := sim.Time(r.Duration)
	if extra <= 0 {
		extra = defaultReplayLatency
	}
	l.tr.Emit(l.env.Now(), "fault", "pcie-replay", uint64(n), uint64(extra), l.Name)
	return extra
}

// DMATarget is anything that accepts inbound memory TLPs: a root complex
// backed by host DRAM, or a bridge that rewrites and forwards them. Both
// methods book bandwidth on the target's own path and return the virtual
// time at which the transaction completes; they never block, so initiators
// can pipeline transfers and sleep only when they need completion order.
//
// A nil data/buf skips content transfer (time is still modelled from n);
// the fio engines use this to avoid copying payload bytes they never read.
//
// data and buf are the initiator's for the length of the call only: an
// implementation copies out of data, or fills buf, before it returns, and
// keeps no reference to either and never writes to data. Initiators rely on
// it — an SSD hands DMAWrite its stored block itself, and reuses or gives away
// the buffer DMARead filled as soon as it is back.
type DMATarget interface {
	// DMAWrite stores n bytes at physical address addr.
	DMAWrite(addr uint64, n int, data []byte) sim.Time
	// DMARead fetches n bytes from physical address addr: n bytes cross the
	// link, and the first len(buf) of them are kept. A reader that knows it
	// wants only the head of what the hardware moves — a PRP-list page is
	// fetched whole for the few entries a transfer uses — passes a short
	// buf; len(buf) > n is a caller bug.
	DMARead(addr uint64, n int, buf []byte) sim.Time
}

// RegDevice receives posted register writes (doorbells) addressed to one of
// its functions. Calls arrive in scheduler context after the wire delay.
type RegDevice interface {
	RegWrite(fn FuncID, offset uint64, val uint64)
}

// RegSinker is an optional companion to RegDevice. A device that discards
// writes to some register in every state it can be in — nothing it does or
// records depends on the write arriving — says so here, and the port then
// books the write on the link like any other but schedules no delivery for
// it. The answer must be a pure function of the arguments; a port asks on
// every posted write.
type RegSinker interface {
	SinksReg(fn FuncID, offset uint64) bool
}

// VDMHandler receives PCIe vendor-defined messages (the MCTP transport).
type VDMHandler interface {
	VDMReceive(pkt []byte)
}

// Port is one end of a link from the device's perspective: it carries
// doorbells down to the device and DMA/interrupts/VDMs up to whatever the
// device is attached to.
type Port struct {
	env      *sim.Env
	link     *Link
	upstream DMATarget
	irq      func(fn FuncID, vector int)
	vdmUp    func(pkt []byte)
	dev      RegDevice
	sink     RegSinker // dev's RegSinker side, or nil

	// Free lists for in-flight doorbell and interrupt deliveries. A port is
	// single-threaded (it belongs to one Env), so plain slices suffice. Each
	// record stores its bound delivery func once at creation; reusing it
	// keeps MMIOWrite and RaiseIRQ allocation-free at steady state, where a
	// per-call closure would otherwise be the single hottest allocation on
	// the doorbell path.
	mmioFree []*mmioMsg
	irqFree  []*irqMsg
}

// mmioMsg is a pooled in-flight posted register write.
type mmioMsg struct {
	pt  *Port
	fn  FuncID
	off uint64
	val uint64
	run func()
}

func (pt *Port) newMMIO() *mmioMsg {
	if n := len(pt.mmioFree); n > 0 {
		m := pt.mmioFree[n-1]
		pt.mmioFree = pt.mmioFree[:n-1]
		return m
	}
	m := &mmioMsg{pt: pt}
	m.run = m.deliver
	return m
}

// deliver recycles the record before invoking the device, so a doorbell
// handler that posts further MMIO writes can reuse it immediately.
func (m *mmioMsg) deliver() {
	pt, fn, off, val := m.pt, m.fn, m.off, m.val
	pt.mmioFree = append(pt.mmioFree, m)
	pt.dev.RegWrite(fn, off, val)
}

// irqMsg is a pooled in-flight MSI delivery.
type irqMsg struct {
	pt  *Port
	fn  FuncID
	vec int
	run func()
}

func (pt *Port) newIRQ() *irqMsg {
	if n := len(pt.irqFree); n > 0 {
		m := pt.irqFree[n-1]
		pt.irqFree = pt.irqFree[:n-1]
		return m
	}
	m := &irqMsg{pt: pt}
	m.run = m.deliver
	return m
}

func (m *irqMsg) deliver() {
	pt, fn, vec := m.pt, m.fn, m.vec
	pt.irqFree = append(pt.irqFree, m)
	pt.irq(fn, vec)
}

// Connect wires a device beneath an upstream target. irq and vdmUp may be
// nil if the upstream side does not accept interrupts or messages; dev may
// be nil for ports used only as DMA initiators.
func Connect(env *sim.Env, link *Link, upstream DMATarget, irq func(FuncID, int), vdmUp func([]byte), dev RegDevice) *Port {
	if link == nil {
		panic("pcie: nil link")
	}
	sink, _ := dev.(RegSinker)
	return &Port{env: env, link: link, upstream: upstream, irq: irq, vdmUp: vdmUp, dev: dev, sink: sink}
}

// SetIRQ installs (or replaces) the upstream interrupt handler. It exists
// for late binding: a host can create the port first and wire the handler
// once its driver structures exist.
func (pt *Port) SetIRQ(fn func(FuncID, int)) { pt.irq = fn }

// --- Host-side operations (called by whatever is above the link) ---

// MMIOWrite posts a register write to the device function. Posted writes do
// not block the caller; the device sees the write after the wire delay. A
// write the device sinks (RegSinker) occupies the link all the same and is
// then dropped at the far end, which takes no event.
func (pt *Port) MMIOWrite(fn FuncID, offset uint64, val uint64) {
	if pt.dev == nil {
		panic("pcie: MMIO write to port with no device")
	}
	pt.link.mDown.AddAt(int64(pt.env.Now()), uint64(WireBytes(4)))
	done := pt.link.toDev.Reserve(WireBytes(4))
	if pt.sink != nil && pt.sink.SinksReg(fn, offset) {
		return
	}
	delay := done - pt.env.Now() + pt.link.Latency
	m := pt.newMMIO()
	m.fn, m.off, m.val = fn, offset, val
	pt.env.Schedule(delay, m.run)
}

// VDMToDevice delivers a vendor-defined message to the device after the
// wire delay. The device must implement VDMHandler.
func (pt *Port) VDMToDevice(pkt []byte) {
	h, ok := pt.dev.(VDMHandler)
	if !ok {
		panic(fmt.Sprintf("pcie: device %T does not accept VDMs", pt.dev))
	}
	cp := append([]byte(nil), pkt...)
	pt.link.mDown.AddAt(int64(pt.env.Now()), uint64(WireBytes(len(cp))))
	done := pt.link.toDev.Reserve(WireBytes(len(cp)))
	delay := done - pt.env.Now() + pt.link.Latency
	pt.env.Schedule(delay, func() { h.VDMReceive(cp) })
}

// --- Device-side operations (called by the device below the link) ---

// DMAWrite sends a posted memory write upstream: it books this link's
// upstream direction, then the upstream target's own path, and returns the
// completion time of the whole transaction.
func (pt *Port) DMAWrite(addr uint64, n int, data []byte) sim.Time {
	pt.link.mUp.AddAt(int64(pt.env.Now()), uint64(WireBytes(n)))
	wire := pt.link.toHost.Reserve(WireBytes(n))
	up := pt.upstream.DMAWrite(addr, n, data)
	return maxTime(wire, up) + pt.link.Latency + pt.link.replayPenalty(n)
}

// DMARead fetches memory from upstream: a small request TLP travels up and
// completion TLPs carry the data down, so the payload books the downstream
// direction of this link.
func (pt *Port) DMARead(addr uint64, n int, buf []byte) sim.Time {
	up := pt.upstream.DMARead(addr, n, buf)
	pt.link.mDown.AddAt(int64(pt.env.Now()), uint64(WireBytes(n)))
	wire := pt.link.toDev.Reserve(WireBytes(n))
	// Request travels up (one latency), data comes back down (another).
	return maxTime(wire, up) + 2*pt.link.Latency + pt.link.replayPenalty(n)
}

// RaiseIRQ signals an MSI-style interrupt for function fn after the wire
// delay. No-op if the upstream side registered no handler.
func (pt *Port) RaiseIRQ(fn FuncID, vector int) {
	if pt.irq == nil {
		return
	}
	pt.link.mUp.AddAt(int64(pt.env.Now()), uint64(WireBytes(4)))
	done := pt.link.toHost.Reserve(WireBytes(4))
	delay := done - pt.env.Now() + pt.link.Latency
	m := pt.newIRQ()
	m.fn, m.vec = fn, vector
	pt.env.Schedule(delay, m.run)
}

// VDMToHost sends a vendor-defined message upstream.
func (pt *Port) VDMToHost(pkt []byte) {
	if pt.vdmUp == nil {
		panic("pcie: upstream side accepts no VDMs")
	}
	cp := append([]byte(nil), pkt...)
	pt.link.mUp.AddAt(int64(pt.env.Now()), uint64(WireBytes(len(cp))))
	done := pt.link.toHost.Reserve(WireBytes(len(cp)))
	delay := done - pt.env.Now() + pt.link.Latency
	pt.env.Schedule(delay, func() { pt.vdmUp(cp) })
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

// Root is a host root complex: the DMATarget backed by host DRAM.
type Root struct {
	env *sim.Env
	Mem *hostmem.Memory
}

// NewRoot returns a root complex over the given memory.
func NewRoot(env *sim.Env, mem *hostmem.Memory) *Root {
	return &Root{env: env, Mem: mem}
}

// DMAWrite implements DMATarget.
func (r *Root) DMAWrite(addr uint64, n int, data []byte) sim.Time {
	if data != nil {
		if len(data) != n {
			panic("pcie: DMA length mismatch")
		}
		r.Mem.Write(addr, data)
	}
	return r.env.Now() + DRAMLatency
}

// DMARead implements DMATarget.
func (r *Root) DMARead(addr uint64, n int, buf []byte) sim.Time {
	if buf != nil {
		if len(buf) > n {
			panic("pcie: DMA length mismatch")
		}
		r.Mem.Read(addr, buf)
	}
	return r.env.Now() + DRAMLatency
}
