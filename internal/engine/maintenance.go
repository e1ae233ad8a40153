package engine

import (
	"fmt"

	"bmstore/internal/nvme"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
)

// This file is the engine's maintenance surface: the operations the
// BMS-Controller drives over the AXI bus — quiesce/resume for hot-upgrade,
// backend replacement for hot-plug, admin passthrough for firmware and
// health commands, and the I/O-monitor counter registers.

// QuiesceBackend closes the submission gate of backend idx and waits until
// every in-flight command on it has completed. Host I/O touching the SSD
// is held in the engine (the saved I/O context); nothing errors.
func (e *Engine) QuiesceBackend(p *sim.Proc, idx int) {
	e.backends[idx].closeGate(p)
}

// ResumeBackend reopens the gate. If the SSD went through a controller
// reset while quiesced (firmware activation), or a previous resume failed
// partway through bring-up, the adaptor rebuilds its queues first — the
// "reload I/O context" step. On error the gate stays closed so the caller
// can retry; host I/O keeps waiting rather than failing.
func (e *Engine) ResumeBackend(p *sim.Proc, idx int) error {
	b := e.backends[idx]
	if !b.dev.Ready() || !b.ready {
		b.freeRings()
		b.ready = false
		if err := b.init(p); err != nil {
			return err
		}
	}
	b.openGate()
	return nil
}

// BackendReady reports whether backend idx is initialised and serving.
func (e *Engine) BackendReady(idx int) bool {
	b := e.backends[idx]
	return b.ready && b.dev.Ready() && !b.gateClosed
}

// ReplaceBackend swaps the physical SSD behind backend idx (hot-plug). The
// gate must already be closed (QuiesceBackend). Front-end identities and
// the namespace chunk maps are preserved; the new device starts empty.
func (e *Engine) ReplaceBackend(p *sim.Proc, idx int, dev *ssd.SSD, link *pcie.Link) error {
	b := e.backends[idx]
	if !b.gateClosed {
		return fmt.Errorf("engine: backend %d must be quiesced before replacement", idx)
	}
	if b.inflight != 0 {
		return fmt.Errorf("engine: backend %d still has %d commands in flight", idx, b.inflight)
	}
	b.dev = dev
	b.spanDev = e.met.Device(dev.Config().Serial)
	b.port = pcie.Connect(e.env, link, backendTarget{e}, func(fn pcie.FuncID, vec int) {
		b.onIRQ(vec)
	}, nil, dev)
	dev.Attach(b.port)
	b.pending = nvme.CIDTable[bePending]{}
	b.freeRings()
	b.ready = false
	keep := b.chunks // chunk allocations survive the swap
	if err := b.init(p); err != nil {
		return err
	}
	b.chunks = keep
	return nil
}

// BackendAdmin submits one admin command to backend idx on behalf of the
// BMS-Controller (firmware download/commit, log pages, …). payloadOut, when
// non-nil, receives a 4K data page the command writes; payloadIn, when
// non-nil, supplies a data page the command reads.
func (e *Engine) BackendAdmin(p *sim.Proc, idx int, cmd nvme.Command, payloadIn []byte, payloadOut []byte) nvme.Completion {
	b := e.backends[idx]
	var page uint64
	if payloadIn != nil || payloadOut != nil {
		page = e.allocChipPage()
		defer e.freeChipPages([]uint64{page})
		if payloadIn != nil {
			e.chip.Write(page, payloadIn)
		}
		cmd.PRP1 = page | ChipMemFlag
	}
	cpl := b.adminCmd(p, cmd)
	if payloadOut != nil {
		e.chip.Read(page, payloadOut)
	}
	return cpl
}

// BackendFirmware returns the live firmware revision of backend idx.
func (e *Engine) BackendFirmware(idx int) string { return e.backends[idx].dev.FirmwareVersion() }

// WaitBackendReset blocks until the SSD behind backend idx finishes its
// current reset window (used after a firmware commit).
func (e *Engine) WaitBackendReset(p *sim.Proc, idx int) {
	ev := e.env.NewEvent()
	e.backends[idx].dev.NotifyResetDone(func() { ev.Trigger(nil) })
	p.Wait(ev)
}

// --- I/O monitor registers ---

// IOCounters is the monitor-visible counter block for one function.
type IOCounters struct {
	Fn          pcie.FuncID
	Namespace   string
	ReadOps     uint64
	ReadBytes   uint64
	WriteOps    uint64
	WriteBytes  uint64
	ReadLatP99  int64 // ns
	WriteLatP99 int64
}

// Counters snapshots the I/O counters of function fn; ok is false when no
// namespace is bound.
func (e *Engine) Counters(fn pcie.FuncID) (IOCounters, bool) {
	if int(fn) >= len(e.funcs) {
		return IOCounters{}, false
	}
	f := e.funcs[fn]
	if f.ns == nil {
		return IOCounters{}, false
	}
	return IOCounters{
		Fn:          fn,
		Namespace:   f.ns.Name,
		ReadOps:     f.ns.ReadStats.Ops,
		ReadBytes:   f.ns.ReadStats.Bytes,
		WriteOps:    f.ns.WriteStats.Ops,
		WriteBytes:  f.ns.WriteStats.Bytes,
		ReadLatP99:  f.ns.ReadStats.Lat.Percentile(0.99),
		WriteLatP99: f.ns.WriteStats.Lat.Percentile(0.99),
	}, true
}
