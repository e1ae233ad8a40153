package engine

import (
	"fmt"

	"bmstore/internal/obs"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
	"bmstore/internal/stats"
)

// Namespace is an engine-level virtual disk: a set of 64 GB chunks carved
// out of the back-end SSDs, exposed to one front-end function as NSID 1.
type Namespace struct {
	Name      string
	SizeLBA   uint64
	blockSize uint64

	mt     *MappingTable
	chunks []Entry // allocated chunks in logical order

	qos         *qosBucket
	buffer      sim.FIFO[bufEntry] // the QoS command buffer (Fig. 5)
	dispatching bool
	dispatchFn  func() // dispatchStep, bound once at creation

	boundTo *function

	// Engine I/O counters, read by the BMS-Controller's I/O monitor.
	ReadStats  stats.IOStats
	WriteStats stats.IOStats

	// parked counts commands the QoS gate held in the command buffer, read
	// at export as qos_parked; it lives apart from the namespace, as
	// Engine.fe does. mBuffered is nil when metrics are off.
	parked    *uint64
	mBuffered *obs.Gauge

	env *sim.Env
}

// bufEntry is one command parked in the QoS command buffer: the
// continuation that re-admits it and the bytes it asks the token bucket for.
type bufEntry struct {
	admit  func()
	nBytes int
}

// CreateNamespace carves sizeBytes out of the given back-end SSDs,
// allocating chunks round-robin across them, and returns the namespace.
// The size is rounded up to whole chunks.
func (e *Engine) CreateNamespace(name string, sizeBytes uint64, ssds []int) (*Namespace, error) {
	if sizeBytes == 0 {
		return nil, fmt.Errorf("engine: zero-size namespace")
	}
	if len(ssds) == 0 {
		return nil, fmt.Errorf("engine: namespace needs at least one backend")
	}
	for _, i := range ssds {
		if i < 0 || i >= len(e.backends) {
			return nil, fmt.Errorf("engine: no backend %d", i)
		}
	}
	nChunks := int((sizeBytes + e.cfg.ChunkBytes - 1) / e.cfg.ChunkBytes)
	mt := NewMappingTable(mtRows, e.cfg.ChunkBytes, ssd.BlockSize)
	if nChunks > mt.Slots() {
		return nil, fmt.Errorf("engine: %d chunks exceed the %d-entry mapping table", nChunks, mt.Slots())
	}
	ns := &Namespace{
		Name:      name,
		SizeLBA:   sizeBytes / ssd.BlockSize,
		blockSize: ssd.BlockSize,
		mt:        mt,
		qos:       newQoSBucket(e.env, QoSLimits{}),
		parked:    new(uint64),
		env:       e.env,
	}
	ns.dispatchFn = ns.dispatchStep
	if e.met != nil {
		comp := e.met.Component("engine/ns/" + name)
		ns.mBuffered = comp.Gauge("qos_buffered")
		parked := ns.parked
		comp.CounterOf("qos_parked", func() uint64 { return *parked })
	}
	for i := 0; i < nChunks; i++ {
		be := e.backends[ssds[i%len(ssds)]]
		chunk, err := be.allocChunk()
		if err != nil {
			e.releaseChunks(ns)
			return nil, err
		}
		ent := Entry{SSD: be.idx, Chunk: chunk}
		if serr := mt.Set(i, ent); serr != nil {
			be.freeChunk(chunk)
			e.releaseChunks(ns)
			return nil, serr
		}
		ns.chunks = append(ns.chunks, ent)
	}
	e.ctlChanged()
	return ns, nil
}

func (e *Engine) releaseChunks(ns *Namespace) {
	for _, ent := range ns.chunks {
		e.backends[ent.SSD].freeChunk(ent.Chunk)
	}
	ns.chunks = nil
}

// DestroyNamespace releases the namespace's chunks. It must be unbound.
func (e *Engine) DestroyNamespace(ns *Namespace) error {
	if ns.boundTo != nil {
		return fmt.Errorf("engine: namespace %q still bound to function %d", ns.Name, ns.boundTo.id)
	}
	e.releaseChunks(ns)
	e.ctlChanged()
	return nil
}

// Bind attaches a namespace to a front-end function as NSID 1.
func (e *Engine) Bind(fn pcie.FuncID, ns *Namespace) error {
	if int(fn) >= len(e.funcs) {
		return fmt.Errorf("engine: no function %d", fn)
	}
	f := e.funcs[fn]
	if f.ns != nil {
		return fmt.Errorf("engine: function %d already has a namespace", fn)
	}
	if ns.boundTo != nil {
		return fmt.Errorf("engine: namespace %q already bound", ns.Name)
	}
	f.ns = ns
	ns.boundTo = f
	e.ctlChanged()
	return nil
}

// Unbind detaches the function's namespace. The front-end identity (the
// function itself) stays visible to the host, which is what lets hot-plug
// preserve logical drives.
func (e *Engine) Unbind(fn pcie.FuncID) {
	f := e.funcs[fn]
	if f.ns != nil {
		f.ns.boundTo = nil
		f.ns = nil
		e.ctlChanged()
	}
}

// SetQoS installs rate limits on the namespace.
func (ns *Namespace) SetQoS(l QoSLimits) {
	ns.qos = newQoSBucket(ns.env, l)
	if f := ns.boundTo; f != nil {
		f.e.ctlChanged()
	}
}

// ssdSetInto appends the distinct backend indices this namespace touches to
// out (pass out[:0] to reuse capacity) and returns it.
func (ns *Namespace) ssdSetInto(out []int) []int {
	var seen [MaxSSDID + 1]bool
	for _, c := range ns.chunks {
		if !seen[c.SSD] {
			seen[c.SSD] = true
			out = append(out, c.SSD)
		}
	}
	return out
}

// admitCB passes the command through the QoS threshold check: cb runs
// immediately for an under-threshold command; a command over the limit joins
// the namespace's command buffer (Fig. 5) and cb runs when the dispatcher
// re-admits it, in FIFO order. The dispatcher is a continuation too
// (dispatchStep): a capped tenant parks nearly every command, so a process
// per park would be the dominant spawn cost of a fleet host.
func (ns *Namespace) admitCB(nBytes int, cb func()) {
	if ns.qos.Unlimited() && ns.buffer.Len() == 0 {
		cb()
		return
	}
	if ns.buffer.Len() == 0 {
		if ok, _ := ns.qos.Admit(nBytes); ok {
			cb()
			return
		}
	}
	ns.buffer.Push(bufEntry{admit: cb, nBytes: nBytes})
	*ns.parked++
	ns.mBuffered.Inc(ns.env.Now())
	if !ns.dispatching {
		ns.dispatching = true
		// The dispatcher starts one queue hop from now.
		ns.env.Schedule(0, ns.dispatchFn)
	}
}

// dispatchStep is the command dispatcher of Fig. 5: it drains the buffer in
// order as tokens accrue, re-scheduling itself for each token wait (Admit
// never returns a wait below 1 µs, so the wait is always a real hop).
func (ns *Namespace) dispatchStep() {
	for ns.buffer.Len() > 0 {
		ok, wait := ns.qos.Admit(ns.buffer.Front().nBytes)
		if !ok {
			ns.env.Schedule(wait, ns.dispatchFn)
			return
		}
		ns.release()
	}
	ns.dispatching = false
}

// release re-admits the head of the command buffer, one queue hop from now.
func (ns *Namespace) release() {
	head := ns.buffer.Pop()
	ns.mBuffered.Dec(ns.env.Now())
	ns.env.Schedule(0, head.admit)
}
