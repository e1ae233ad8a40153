package engine

import (
	"fmt"

	"bmstore/internal/nvme"
	"bmstore/internal/nvmei"
	"bmstore/internal/obs"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
)

// backend is the host-adaptor state for one attached SSD: queue rings in
// chip memory, CID bookkeeping, and the quiesce gate used by hot-upgrade
// and hot-plug.
type backend struct {
	e   *Engine
	idx int
	dev *ssd.SSD
	// port is the engine's downstream attachment point: MMIO doorbells go
	// through it to the SSD, and the SSD's DMA arrives at backendTarget.
	port *pcie.Port

	admin *nvmei.Queue
	ioQs  []*nvmei.Queue

	// pending holds the outstanding commands by the CID they were forwarded
	// under — the hot-upgrade's saved I/O context. CIDs roam the 16-bit space
	// (allocCID), so it is a leaf table rather than an array.
	pending nvme.CIDTable[bePending]
	nextCID uint16
	// spanDev is the SSD's device id in the metrics registry's span-alias
	// domain (zero without metrics).
	spanDev uint32

	capacityLBA uint64
	backendNSID uint32
	chunks      []bool // chunk allocation bitmap
	ringPages   []uint64

	gateClosed bool
	gateWait   []func() // submissions held at the closed gate, in arrival order
	inflight   int
	// submitted counts commands sent, read at export as io_submitted; it
	// lives apart from the backend, as Engine.fe does.
	submitted *uint64
	drainEv   *sim.Event

	ready bool

	// Data-path free lists (see pipeline.go).
	submitFree []*beSubmit
	pendFree   []*bePending
	doneFree   []*doneMsg
	adminFree  []*adminWait

	// Per-backend instruments (nil-safe no-ops when metrics are off).
	mInflight *obs.Gauge
}

type bePending struct {
	q    *nvmei.Queue
	done func(nvme.Completion)
}

// AttachBackend wires an SSD below the engine over the given link and
// returns its backend index. Call InitBackends (or Start on a full rig)
// before serving I/O.
func (e *Engine) AttachBackend(dev *ssd.SSD, link *pcie.Link) int {
	idx := len(e.backends)
	if idx > MaxSSDID {
		panic("engine: backend index does not fit the 2-bit mapping field")
	}
	b := &backend{e: e, idx: idx, dev: dev, submitted: new(uint64)}
	if e.met != nil {
		b.spanDev = e.met.Device(dev.Config().Serial)
		comp := e.met.Instance("engine/backend")
		b.mInflight = comp.Gauge("inflight")
		submitted := b.submitted
		comp.CounterOf("io_submitted", func() uint64 { return *submitted })
	}
	b.port = pcie.Connect(e.env, link, backendTarget{e}, func(fn pcie.FuncID, vec int) {
		b.onIRQ(vec)
	}, nil, dev)
	dev.Attach(b.port)
	e.backends = append(e.backends, b)
	return idx
}

// Backends returns the number of attached SSDs.
func (e *Engine) Backends() int { return len(e.backends) }

// BackendDevice returns the SSD currently behind backend idx.
func (e *Engine) BackendDevice(idx int) *ssd.SSD { return e.backends[idx].dev }

// Start initialises every attached backend; it must run in process context
// because the init sequence performs admin round trips.
func (e *Engine) Start(p *sim.Proc) error {
	for _, b := range e.backends {
		if err := b.init(p); err != nil {
			return fmt.Errorf("engine: backend %d: %w", b.idx, err)
		}
	}
	e.armCrashRules()
	return nil
}

// allocRing allocates a queue ring in chip memory and returns its base
// address there; the queue names it to the SSD with ChipMemFlag set.
func (b *backend) allocRing(entries uint32, entrySz uint32) uint64 {
	pages := nvmei.RingPages(entries, entrySz)
	base := b.e.chip.AllocPages(pages)
	for i := 0; i < pages; i++ {
		b.ringPages = append(b.ringPages, base+uint64(i)*nvme.PageSize)
	}
	return base
}

// init brings the SSD up: admin queues, namespace discovery (creating the
// whole-disk namespace on a fresh device), and the I/O queue pairs.
func (b *backend) init(p *sim.Proc) error {
	cfg := b.e.cfg
	const adminDepth = 32
	conn := nvmei.Conn{Env: b.e.env, Mem: b.e.chip, Port: b.port, Tag: ChipMemFlag}
	sqBase := b.allocRing(adminDepth, nvme.SQESize)
	b.admin = conn.NewQueue(0, adminDepth, sqBase, b.allocRing(adminDepth, nvme.CQESize))
	b.admin.Enable()
	p.Sleep(50 * sim.Microsecond) // controller enable time

	// Identify the controller to learn total capacity.
	page := b.e.allocChipPage()
	defer b.e.freeChipPages([]uint64{page})
	cpl := b.adminCmd(p, nvme.Command{
		Opcode: nvme.AdminIdentify, PRP1: page | ChipMemFlag, CDW10: nvme.CNSController,
	})
	if cpl.Status.IsError() {
		return fmt.Errorf("identify controller: status %#x", cpl.Status)
	}
	buf := make([]byte, nvme.IdentifyPageSize)
	b.e.chip.Read(page, buf)
	ic := nvme.DecodeIdentifyController(buf)
	b.capacityLBA = ic.TotalCapBytes / ssd.BlockSize

	// Discover or create the whole-disk back-end namespace.
	cpl = b.adminCmd(p, nvme.Command{
		Opcode: nvme.AdminIdentify, PRP1: page | ChipMemFlag, CDW10: nvme.CNSActiveNSList,
	})
	if cpl.Status.IsError() {
		return fmt.Errorf("identify ns list: status %#x", cpl.Status)
	}
	b.e.chip.Read(page, buf)
	if nsid := uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24; nsid != 0 {
		b.backendNSID = nsid
	} else {
		b.e.chip.WriteU64(page, b.capacityLBA)
		cpl = b.adminCmd(p, nvme.Command{Opcode: nvme.AdminNSManagement, PRP1: page | ChipMemFlag})
		if cpl.Status.IsError() {
			return fmt.Errorf("create backend namespace: status %#x", cpl.Status)
		}
		b.backendNSID = cpl.DW0
	}

	// Chunk bitmap: the 6-bit physical chunk field caps usable space.
	nChunks := int(b.capacityLBA * ssd.BlockSize / b.e.cfg.ChunkBytes)
	if nChunks > MaxChunkIndex+1 {
		nChunks = MaxChunkIndex + 1
	}
	if b.chunks == nil {
		b.chunks = make([]bool, nChunks)
	}

	// I/O queue pairs.
	b.ioQs = nil
	for i := 0; i < cfg.BackendQPairs; i++ {
		cqBase := b.allocRing(cfg.BackendQDepth, nvme.CQESize)
		q := conn.NewQueue(uint16(i+1), cfg.BackendQDepth, b.allocRing(cfg.BackendQDepth, nvme.SQESize), cqBase)
		if err := q.Create(p, b.adminCmd); err != nil {
			return err
		}
		b.ioQs = append(b.ioQs, q)
	}
	b.ready = true
	return nil
}

// allocCID hands out the next sequential CID that is not pending. The value
// goes on the wire and into trace records, so the sequence is part of the
// model.
func (b *backend) allocCID() uint16 {
	for {
		b.nextCID++
		if b.pending.Get(b.nextCID) == nil {
			return b.nextCID
		}
	}
}

// adminCmd submits one admin command and blocks until its completion. A
// dead or resetting device would never post the CQE, so the command
// fails fast with a synthetic not-ready completion instead of hanging the
// calling process forever.
func (b *backend) adminCmd(p *sim.Proc, cmd nvme.Command) nvme.Completion {
	if !b.dev.Ready() {
		return nvme.Completion{CID: cmd.CID, Status: nvme.StatusNSNotReady}
	}
	b.admin.Slots.Acquire(p)
	cmd.CID = b.allocCID()
	w := b.getAdminWait()
	w.ev = b.e.env.PooledEvent()
	b.pending.Put(cmd.CID, b.getPending(b.admin, w.done))
	b.admin.Push(&cmd)
	b.admin.Ring()
	p.Wait(w.ev)
	cpl := w.cpl
	w.ev = nil
	b.adminFree = append(b.adminFree, w)
	return cpl
}

// adminWait is a pooled admin-command wait: the calling process's one-shot
// event and the completion that wakes it, which complete, bound once as
// done, stores rather than boxing it into the event's value. A wait whose
// completion never comes (a device that died under it) is never returned,
// as its event is not.
type adminWait struct {
	ev   *sim.Event
	cpl  nvme.Completion
	done func(nvme.Completion)
}

func (w *adminWait) complete(cpl nvme.Completion) {
	w.cpl = cpl
	w.ev.Trigger(nil)
}

func (b *backend) getAdminWait() *adminWait {
	if n := len(b.adminFree); n > 0 {
		w := b.adminFree[n-1]
		b.adminFree = b.adminFree[:n-1]
		return w
	}
	w := &adminWait{}
	w.done = w.complete
	return w
}

// onIRQ scans the completion queue named by the MSI vector.
func (b *backend) onIRQ(vec int) {
	var q *nvmei.Queue
	if vec == 0 {
		q = b.admin
	} else if vec-1 < len(b.ioQs) {
		q = b.ioQs[vec-1]
	}
	if q == nil {
		return
	}
	var cpl nvme.Completion
	for q.Next(&cpl) {
		b.complete(cpl)
	}
}

func (b *backend) complete(cpl nvme.Completion) {
	pend := b.pending.Delete(cpl.CID)
	if pend == nil {
		return // stale completion from a replaced device, or a CID never issued
	}
	pend.q.Slots.Release()
	if pend.q != b.admin {
		b.inflight--
		b.mInflight.Dec(b.e.env.Now())
		if b.inflight == 0 && b.drainEv != nil {
			b.drainEv.Trigger(nil)
		}
	}
	done := pend.done
	pend.q, pend.done = nil, nil
	b.pendFree = append(b.pendFree, pend)
	b.scheduleDone(done, cpl)
}

// --- quiesce gate (hot-upgrade / hot-plug support) ---

// closeGate stops new submissions and waits for in-flight commands on this
// SSD to drain. If the device is gone (surprise removal) the drain would
// never finish, so pending commands are abandoned with a retryable
// not-ready status instead — the host driver's retry logic re-issues them
// once a replacement is in service.
func (b *backend) closeGate(p *sim.Proc) {
	b.gateClosed = true
	if b.inflight > 0 && !b.dev.Ready() {
		b.abandonPending()
	}
	if b.inflight > 0 {
		b.drainEv = b.e.env.NewEvent()
		p.Wait(b.drainEv)
		b.drainEv = nil
	}
}

// abandonPending synthesises not-ready completions for every outstanding
// command, in CID order. Real completions from the dead device can no longer
// arrive, and complete() tolerates stragglers anyway.
func (b *backend) abandonPending() {
	for cid := range b.pending.All() {
		b.e.tr.Emit(b.e.env.Now(), trAbandon, uint64(b.idx)<<16|uint64(cid), 0, b.dev.Config().Serial)
		b.complete(nvme.Completion{CID: cid, Status: nvme.StatusNSNotReady})
	}
}

func (b *backend) openGate() {
	b.gateClosed = false
	ws := b.gateWait
	b.gateWait = nil
	for _, fn := range ws {
		b.e.env.Schedule(0, fn)
	}
}

// allocChunk reserves one physical chunk, returning its index.
func (b *backend) allocChunk() (int, error) {
	for i, used := range b.chunks {
		if !used {
			b.chunks[i] = true
			return i, nil
		}
	}
	return 0, fmt.Errorf("engine: backend %d out of chunks", b.idx)
}

func (b *backend) freeChunk(i int) {
	if i >= 0 && i < len(b.chunks) {
		b.chunks[i] = false
	}
}

// freeRings recycles ring pages from a previous init (after a controller
// reset the rings are rebuilt from scratch).
func (b *backend) freeRings() {
	b.e.freeChipPages(b.ringPages)
	b.ringPages = nil
}
