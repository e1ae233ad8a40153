package engine

import (
	"fmt"

	"bmstore/internal/fault"
	"bmstore/internal/hostmem"
	"bmstore/internal/nvme"
	"bmstore/internal/nvmet"
	"bmstore/internal/obs"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/trace"
)

// The engine's trace records.
var (
	trDispatch          = trace.NewKey("engine", "dispatch")
	trMap               = trace.NewKey("engine", "map")
	trRouteW            = trace.NewKey("engine", "route-w")
	trRouteR            = trace.NewKey("engine", "route-r")
	trAbandon           = trace.NewKey("engine", "abandon")
	trCrash             = trace.NewKey("engine", "crash")
	trRecover           = trace.NewKey("engine", "recover")
	trFaultBackendStall = trace.NewKey("fault", "backend-stall")
)

// The BMS-Engine's fixed geometry and pipeline timings. The latencies are
// calibrated so the whole engine adds roughly 3 µs to the I/O path,
// matching Table V of the paper.
const (
	numPFs = 4   // physical functions exposed to the host
	numVFs = 124 // virtual functions

	mtRows       = 8        // mapping-table rows per namespace
	chipMemBytes = 64 << 20 // on-chip RAM for back-end rings and PRP lists

	fetchLatency      = 250 * sim.Nanosecond // SR-IOV layer + target controller, per SQE
	mapLatency        = 300 * sim.Nanosecond // LBA mapping + QoS pipeline
	forwardLatency    = 250 * sim.Nanosecond // host-adaptor submit stage
	completeLatency   = 300 * sim.Nanosecond // CQE writeback stage
	routeLatency      = 150 * sim.Nanosecond // DMA request routing per transaction
	chipAccessLatency = 100 * sim.Nanosecond // chip-RAM access seen by back-end DMA

	// stagingBandwidth is the engine DRAM bandwidth available to the
	// store-and-forward path (per direction): one DDR4 channel's effective
	// bandwidth.
	stagingBandwidth = 6.4e9
)

// Every function's number fits the 7-bit global PRP tag.
const _ uint = pcie.MaxFunctions - (numPFs + numVFs)

// Config holds the BMS-Engine settings that callers choose.
type Config struct {
	ChunkBytes    uint64 // mapping chunk size (64 GB in production)
	BackendQDepth uint32 // back-end submission queue depth
	BackendQPairs int    // I/O queue pairs per back-end SSD

	// StoreAndForward disables the global-PRP zero-copy routing: data is
	// staged in engine DRAM and re-transferred, the naive design §IV-C
	// argues against. It exists purely as an ablation — the bench shows
	// the bandwidth/latency cost the DMA-routing mechanism avoids.
	StoreAndForward bool
}

// DefaultConfig returns the production-shaped configuration.
func DefaultConfig() Config {
	return Config{
		ChunkBytes:    64 << 30,
		BackendQDepth: 1024,
		BackendQPairs: 4,
	}
}

// frontCounts are the front end's counts.
type frontCounts struct {
	dispatched uint64 // reads and writes past the namespace and opcode checks
	flushes    uint64 // flushes fanned out to at least one backend
}

// Engine is the BMS-Engine instance.
type Engine struct {
	env *sim.Env
	cfg Config
	// tr is the determinism tracer cached at construction; nil when
	// tracing is off, and Emit on nil does nothing.
	tr *trace.Tracer
	// met is the metrics registry, cached under the same contract; the
	// front end marks span stages through it, and it reads fe at export.
	met *obs.Registry
	// fe lives apart from the Engine so that a registry outliving the rig
	// (an obs.Set keeps every rig's) holds the counts, not the rig.
	fe *frontCounts
	// flt is the rig's fault injector, cached like tr/met; the back-end
	// submit path consults it for injected stalls.
	flt *fault.Injector

	// Crash state (see crash.go): dead latches while the card is down;
	// epoch counts crash generations so pre-crash work that resumes after a
	// recovery can detect the generation change and bail instead of
	// touching the restored state.
	dead  bool
	epoch uint64
	// crashArmed/crashOnDispatch gate engine-crash rule evaluation:
	// timer rules are scheduled once at Start, Nth-op rules are checked on
	// each dispatch only when one exists.
	crashArmed      bool
	crashOnDispatch bool
	// Crash-manager hooks (all optional; see SetCrashHooks).
	onCrash     func(CrashInfo)
	onWriteAck  func([]WriteExtent)
	onCtlChange func()

	hostPort *pcie.Port
	chip     *hostmem.Memory
	free     []uint64 // recycled chip-memory pages for PRP lists
	// listScratch is where one global-PRP list page is encoded before it is
	// stored in chip memory (buildGlobalPRPs).
	listScratch [hostmem.PageSize]byte

	feIOFree []*feIO // free list of data-path command records (pipeline.go)

	funcs    []*function
	backends []*backend

	vdmHandler func(pkt []byte) // BMS-Controller's MCTP endpoint

	// staging is the DRAM pacer of the store-and-forward ablation.
	staging *sim.Pacer

	// Firmware version of the engine bitstream, reported by front-end
	// identify so tenants see a stable virtual device.
	Firmware string

	// The PRP walk's scratch (pipeline.go): the host segments a command's
	// walk resolves and one extent's share of them. Both are valid only
	// inside one feIO.walkAttempt → assembleSubs call: a walk that has to
	// fetch a list page returns before it reads them and its retry starts
	// over from [:0], so no wait crosses them and they belong to the engine,
	// not to the command. They come last so that no hot field above moves.
	segScratch []nvme.Segment
	extScratch []nvme.Segment
}

// New constructs an engine. Attach it to the host link with pcie.Connect
// (the engine is the RegDevice and VDMHandler) followed by AttachHost.
func New(env *sim.Env, cfg Config) *Engine {
	e := &Engine{
		env:      env,
		cfg:      cfg,
		tr:       env.Tracer(),
		met:      env.Metrics(),
		flt:      env.Faults(),
		chip:     hostmem.New(chipMemBytes),
		fe:       new(frontCounts),
		Firmware: "BMS_1.0",
	}
	if e.met != nil {
		fe, comp := e.fe, e.met.Component("engine/frontend")
		comp.CounterOf("io_dispatched", func() uint64 { return fe.dispatched })
		comp.CounterOf("flushes", func() uint64 { return fe.flushes })
	}
	e.funcs = make([]*function, numPFs+numVFs)
	for i := range e.funcs {
		e.funcs[i] = newFunction(e, pcie.FuncID(i))
	}
	if cfg.StoreAndForward {
		e.staging = sim.NewPacer(env, stagingBandwidth)
	}
	return e
}

// AttachHost wires the engine's upstream port (created by pcie.Connect with
// the engine as device).
func (e *Engine) AttachHost(port *pcie.Port) {
	e.hostPort = port
	for _, f := range e.funcs {
		f.ctl.Attach(port)
	}
}

// SetVDMHandler registers the BMS-Controller's MCTP endpoint for
// vendor-defined messages arriving from the host link.
func (e *Engine) SetVDMHandler(fn func(pkt []byte)) { e.vdmHandler = fn }

// VDMReceive implements pcie.VDMHandler: management traffic goes straight
// to the BMS-Controller, bypassing the host-visible NVMe surface.
func (e *Engine) VDMReceive(pkt []byte) {
	if e.vdmHandler != nil {
		e.vdmHandler(pkt)
	}
}

// VDMToHost sends an MCTP packet toward the host/BMC.
func (e *Engine) VDMToHost(pkt []byte) { e.hostPort.VDMToHost(pkt) }

// RegWrite implements pcie.RegDevice: the SR-IOV layer demultiplexes
// register writes to the per-function virtual NVMe controllers.
func (e *Engine) RegWrite(fn pcie.FuncID, off uint64, val uint64) {
	if e.dead {
		return // a crashed card ignores MMIO; doorbells during the outage are lost
	}
	if int(fn) >= len(e.funcs) {
		return
	}
	e.funcs[fn].ctl.RegWrite(off, val)
}

// SinksReg implements pcie.RegSinker: every function is a stock NVMe
// controller, whose CQ head doorbells change nothing.
func (e *Engine) SinksReg(_ pcie.FuncID, off uint64) bool { return nvmet.SinksReg(off) }

// Function returns the per-function state (for binding and monitoring).
func (e *Engine) Function(fn pcie.FuncID) *function { return e.funcs[fn] }

// NumFunctions returns the number of exposed PFs+VFs.
func (e *Engine) NumFunctions() int { return len(e.funcs) }

// allocChipPage hands out one 4K page of chip memory, recycling freed
// PRP-list pages (on-chip RAM is finite, unlike the host DRAM model).
func (e *Engine) allocChipPage() uint64 {
	if n := len(e.free); n > 0 {
		pg := e.free[n-1]
		e.free = e.free[:n-1]
		return pg
	}
	return e.chip.AllocPages(1)
}

func (e *Engine) freeChipPages(pages []uint64) {
	e.free = append(e.free, pages...)
}

// --- DMA request routing (the zero-copy mechanism) ---

// backendTarget is what a back-end SSD sees as its upstream: the engine's
// DMA-routing module. Chip-memory addresses (queue rings, rewritten PRP
// lists) are served from on-chip RAM; global PRPs are untagged and
// forwarded to the host root complex, so SSD data moves directly between
// flash and host memory without ever being buffered in the engine.
type backendTarget struct {
	e *Engine
}

func (t backendTarget) DMAWrite(addr uint64, n int, data []byte) sim.Time {
	e := t.e
	if IsChipMem(addr) {
		if data != nil {
			e.chip.Write(ChipAddr(addr), data)
		}
		return e.env.Now() + chipAccessLatency
	}
	fn, hostAddr, _ := DecodeGlobalPRP(addr)
	if int(fn) >= len(e.funcs) {
		panic(fmt.Sprintf("engine: DMA write routed to unknown function %d", fn))
	}
	e.tr.Emit(e.env.Now(), trRouteW, uint64(fn)<<48|hostAddr, uint64(n), "")
	if e.staging != nil {
		// Ablation: land in engine DRAM first, then re-DMA to the host.
		in := e.staging.Reserve(int64(n)) - e.env.Now()
		return e.hostPort.DMAWrite(hostAddr, n, data) + in + routeLatency
	}
	return e.hostPort.DMAWrite(hostAddr, n, data) + routeLatency
}

func (t backendTarget) DMARead(addr uint64, n int, buf []byte) sim.Time {
	e := t.e
	if IsChipMem(addr) {
		if buf != nil {
			e.chip.Read(ChipAddr(addr), buf)
		}
		return e.env.Now() + chipAccessLatency
	}
	fn, hostAddr, _ := DecodeGlobalPRP(addr)
	if int(fn) >= len(e.funcs) {
		panic(fmt.Sprintf("engine: DMA read routed to unknown function %d", fn))
	}
	e.tr.Emit(e.env.Now(), trRouteR, uint64(fn)<<48|hostAddr, uint64(n), "")
	if e.staging != nil {
		out := e.staging.Reserve(int64(n)) - e.env.Now()
		return e.hostPort.DMARead(hostAddr, n, buf) + out + routeLatency
	}
	return e.hostPort.DMARead(hostAddr, n, buf) + routeLatency
}
