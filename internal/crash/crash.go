// Package crash is the BM-Engine's crash-recovery subsystem: a
// checkpoint/journal layer over the engine's control-plane state, a model
// of a hard engine crash (fault point engine-crash@t / nth=), and the
// recovery path that brings the card back while the host driver's
// timeout/retry machinery rides out the outage.
//
// The durability model is deliberately simple and checkable:
//
//   - A checkpoint is taken whenever the control plane changes (namespace
//     create/destroy/bind/unbind, QoS update) — the moments a real engine
//     flushes its metadata. It snapshots the namespace maps, chunk
//     allocators and QoS limits, plus which CIDs were in flight.
//   - Every acknowledged write is appended to a virtual-time intent
//     journal BEFORE its CQE is posted, with the physical extents it
//     landed on and (on data-capturing rigs) the payload bytes read back
//     from the media at ack time.
//   - A crash loses everything volatile: un-acked in-flight work vanishes
//     without completions, and the journal-covered physical blocks are
//     clobbered to zero — the model of a volatile write-back cache whose
//     contents never reached flash.
//   - Recovery restores the last checkpoint, redoes the journal in order
//     (which rewrites exactly the clobbered bytes), and re-attaches the
//     host driver. With an intact journal the clobber+redo round trip is
//     a no-op and no acked write is lost; a deliberately truncated journal
//     or tampered checkpoint makes the verify oracle's invariants fire,
//     which is how the tests prove they are load-bearing.
package crash

import (
	"bmstore/internal/engine"
	"bmstore/internal/host"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
)

// The recovery sequence's delays.
const (
	// Outage is how long the card stays dark after a crash before the
	// reboot begins. It sits well inside a recovering driver's retry
	// budget (CmdTimeout x MaxRetries), so episodes that span the outage
	// come back as retried successes, not errors.
	Outage = 8 * sim.Millisecond
	// RebootLatency models firmware boot + checkpoint load.
	RebootLatency = sim.Millisecond
	// ReplayPerRecord is the virtual time charged per redone journal
	// record.
	ReplayPerRecord = 2 * sim.Microsecond
)

// Config plants violations in the crash/recovery model; the zero value is
// the faithful model.
type Config struct {
	// TruncateJournal, when nonzero, drops that many records from the
	// TAIL of the journal before replay — a planted violation: the
	// clobbered blocks of the dropped records stay zeroed, so the verify
	// oracle's no-acked-write-loss invariant must fire.
	TruncateJournal int
	// TamperCheckpoint, when non-nil, is applied to the checkpoint just
	// before recovery restores it — a planted violation for the mapping
	// path (e.g. swapping two chunk entries misdirects reads).
	TamperCheckpoint func(*engine.Checkpoint)
	// DisableRecovery leaves the card dead after the crash: the outage
	// never ends and every in-flight episode exhausts its retries.
	DisableRecovery bool
}

// Stats is the manager's cumulative accounting.
type Stats struct {
	Crashes         int
	Journaled       int   // records appended since the last checkpoint
	Replayed        int   // records redone by the last recovery
	Dropped         int   // records lost to TruncateJournal
	InFlightAtCrash int   // commands the crash dropped without completion
	CrashedAt       int64 // virtual time of the last crash (0 = none)
	RecoveredAt     int64 // virtual time recovery finished (0 = none)
	RecoverErr      string
}

// Manager owns the checkpoint and journal for one engine and drives the
// crash → outage → reboot → restore → replay → re-attach sequence.
type Manager struct {
	env     *sim.Env
	eng     *engine.Engine
	cfg     Config
	ssds    []*ssd.SSD
	drivers []*host.Driver

	cp    *engine.Checkpoint
	stats Stats
	// journal holds one record per acknowledged write: the extents it
	// landed on, each with the payload read back from the media at ack time
	// (nil Data on content-free rigs).
	journal [][]engine.WriteExtent
}

// New wires a manager to the engine: it registers the crash hooks and
// takes the initial checkpoint. ssds must be the rig's backend slice in
// engine order (journal extents index into it).
func New(env *sim.Env, eng *engine.Engine, ssds []*ssd.SSD, cfg Config) *Manager {
	m := &Manager{env: env, eng: eng, cfg: cfg, ssds: ssds}
	eng.SetCrashHooks(m.onCrash, m.onWriteAck, m.onCtlChange)
	m.cp = eng.TakeCheckpoint()
	return m
}

// RegisterDriver adds a host driver to re-attach after recovery.
func (m *Manager) RegisterDriver(d *host.Driver) {
	m.drivers = append(m.drivers, d)
}

// Config returns the configuration the manager was built with.
func (m *Manager) Config() Config { return m.cfg }

// Stats snapshots the manager's accounting.
func (m *Manager) Stats() Stats { return m.stats }

// onCtlChange fires on every control-plane mutation: checkpoint the new
// state and clear the journal (the checkpoint models a full cache flush).
func (m *Manager) onCtlChange() {
	if m.eng.Dead() {
		return
	}
	m.cp = m.eng.TakeCheckpoint()
	m.journal = m.journal[:0]
	m.stats.Journaled = 0
}

// onWriteAck journals one acknowledged write's extents, capturing the
// payload bytes as they sit on the media at ack time (write-through: data is
// on flash when the CQE goes out, so a read-back is the ground truth to
// redo).
func (m *Manager) onWriteAck(exts []engine.WriteExtent) {
	for i := range exts {
		if e := &exts[i]; e.Backend >= 0 && e.Backend < len(m.ssds) {
			e.Data = m.ssds[e.Backend].CaptureRead(e.NSID, e.PhysLBA, e.Blocks)
		}
	}
	m.journal = append(m.journal, exts)
	m.stats.Journaled++
}

// onCrash is called from inside the engine's crash latch. It models the
// loss of the volatile write-back cache — every journal-covered physical
// block is clobbered to zero — and then schedules recovery after the
// outage, unless the rig wants the card to stay dead.
func (m *Manager) onCrash(ci engine.CrashInfo) {
	m.stats.Crashes++
	m.stats.CrashedAt = ci.At
	m.stats.InFlightAtCrash = ci.Dropped
	m.stats.RecoveredAt = 0
	for _, rec := range m.journal {
		for _, e := range rec {
			if e.Backend >= 0 && e.Backend < len(m.ssds) {
				m.ssds[e.Backend].CaptureZero(e.NSID, e.PhysLBA, e.Blocks)
			}
		}
	}
	if m.cfg.DisableRecovery {
		return
	}
	m.env.Go("crash/recovery", func(p *sim.Proc) {
		p.Sleep(Outage)
		m.recover(p)
	})
}

// recover runs the recovery sequence in its own process: reboot, restore
// the checkpoint, redo the journal, re-attach the host drivers. The host
// side sees only an outage — its in-flight attempts time out, park as
// zombies, and retry their way back in once the queues exist again.
func (m *Manager) recover(p *sim.Proc) {
	p.Sleep(RebootLatency)
	if m.cfg.TamperCheckpoint != nil {
		m.cfg.TamperCheckpoint(m.cp)
	}
	if err := m.eng.Recover(m.cp); err != nil {
		m.stats.RecoverErr = err.Error()
		return
	}
	n := len(m.journal) - m.cfg.TruncateJournal
	if n < 0 {
		n = 0
	}
	m.stats.Dropped += len(m.journal) - n
	m.stats.Replayed = 0
	for _, rec := range m.journal[:n] {
		for _, e := range rec {
			if e.Backend >= 0 && e.Backend < len(m.ssds) && e.Data != nil {
				m.ssds[e.Backend].CaptureWrite(e.NSID, e.PhysLBA, e.Data)
			}
		}
		m.stats.Replayed++
		p.Sleep(ReplayPerRecord)
	}
	m.journal = m.journal[:0]
	m.stats.Journaled = 0
	m.cp = m.eng.TakeCheckpoint()
	for _, d := range m.drivers {
		if err := d.Reattach(p); err != nil {
			m.stats.RecoverErr = err.Error()
			return
		}
	}
	m.stats.RecoveredAt = int64(p.Now())
}
