package engine

// This file is the engine half of the crash-recovery subsystem (the other
// half, the manager that owns the durable checkpoint/journal and drives
// recovery, is internal/crash). It implements the hard-crash fault point —
// at one virtual instant the card loses every piece of volatile state —
// and the state extraction/restore hooks the manager builds on:
// TakeCheckpoint/RestoreCheckpoint over the per-function namespace maps
// and backend allocation state, a write-ack journal hook fired by the I/O
// path, and Recover to bring a dead card back.
//
// Crash semantics: in-flight commands vanish without completions (the
// host driver's timeout/retry machinery turns them into the in-doubt
// window — a dead card cannot post CQEs, so nothing is synthesized),
// doorbells and register writes are ignored while dead, and the backend
// quiesce gates latch shut. The backend queue rings and the SSDs stay
// untouched: commands the SSDs already fetched keep executing, their CQEs
// are drained by onIRQ and dropped as stale by complete(), which keeps
// ring head/phase consistent for the restore. Work that was parked across
// the crash (QoS buffer, gate waits, slot waits) wakes normally and bails
// on the epoch check.

import (
	"fmt"

	"bmstore/internal/fault"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
)

// CrashTarget is the target name engine-crash rules are evaluated
// against; rules with an empty Target match it, so specs normally omit it.
const CrashTarget = "engine"

// CrashInfo describes one hard crash, passed to the manager's hook.
type CrashInfo struct {
	At    int64  // virtual instant of the crash
	Epoch uint64 // crash generation after this crash
	// Dropped is how many backend I/O commands were in flight and vanished
	// without completions — the engine-side upper bound of the in-doubt
	// window.
	Dropped int
}

// WriteExtent is one physical piece of an acknowledged write, reported to the
// journal hook at the instant before the write's CQE is posted: "acked" and
// "journaled" are atomic in the model, mirroring a capacitor-backed intent
// log written before the completion doorbell.
type WriteExtent struct {
	Backend int    // engine backend index
	NSID    uint32 // backend namespace the data lives in
	PhysLBA uint64
	Blocks  uint32
	Data    []byte // the payload, which the journal captures; nil from the engine
}

// NamespaceCheckpoint is the durable image of one bound namespace: name,
// geometry, QoS limits, and the chunk map in logical order (the mapping
// table is rebuilt from it at restore).
type NamespaceCheckpoint struct {
	Fn      int // front-end function the namespace is bound to
	Name    string
	SizeLBA uint64
	QoS     QoSLimits
	Chunks  []Entry
}

// BackendCheckpoint is the durable image of one backend: the chunk
// allocation bitmap plus the in-flight CID table at checkpoint time. The
// CID list is informational — those commands are exactly the ones a crash
// after this checkpoint can lose — so it sizes the in-doubt window in
// recovery reports.
type BackendCheckpoint struct {
	Serial      string
	Chunks      []bool
	PendingCIDs []uint16
}

// Checkpoint is a serializable snapshot of the engine's volatile state.
type Checkpoint struct {
	Namespaces []NamespaceCheckpoint
	Backends   []BackendCheckpoint
}

// Dead reports whether the engine has hard-crashed and not yet recovered.
func (e *Engine) Dead() bool { return e.dead }

// SetCrashHooks registers the crash manager's callbacks: onCrash fires at
// the crash instant (after volatile state is gone), onWriteAck on every
// successful write acknowledgement with the extents it landed on, which the
// hook may keep (the journal feed), and onCtlChange on every control-plane
// mutation (the manager re-takes its checkpoint, so the snapshot a crash
// restores from is never stale). All three may be nil.
func (e *Engine) SetCrashHooks(onCrash func(CrashInfo), onWriteAck func([]WriteExtent), onCtlChange func()) {
	e.onCrash, e.onWriteAck, e.onCtlChange = onCrash, onWriteAck, onCtlChange
}

func (e *Engine) ctlChanged() {
	if e.onCtlChange != nil {
		e.onCtlChange()
	}
}

// armCrashRules wires hard-crash rules to virtual time. Rules with t= fire
// from a timer at exactly rule.At; rules with nth= are evaluated on each
// engine dispatch (crashDispatchHit). Both route through Injector.Hit so
// Injected()/InjectedBy stay truthful for the invariant checkers. When
// both forms appear in one rig the crash lands at whichever instant comes
// first — the dispatch evaluation can fire an armed t= rule one dispatch
// early, which still crashes within the same virtual neighbourhood and
// stays deterministic.
func (e *Engine) armCrashRules() {
	if e.flt == nil || e.crashArmed {
		return
	}
	e.crashArmed = true
	for _, r := range e.flt.Rules() {
		if r.Point != fault.EngineCrash {
			continue
		}
		if r.Nth > 0 {
			e.crashOnDispatch = true
			continue
		}
		delay := sim.Time(r.At) - e.env.Now()
		if delay < 0 {
			delay = 0
		}
		e.env.Schedule(delay, e.crashTimerFire)
	}
}

func (e *Engine) crashTimerFire() {
	if e.flt.Hit(fault.EngineCrash, CrashTarget, int64(e.env.Now())) != nil {
		e.enterCrash()
	}
}

// crashDispatchHit evaluates Nth-dispatch engine-crash rules at a dispatch
// point and reports whether the engine just crashed. The dispatching
// command itself is swallowed by the crash.
func (e *Engine) crashDispatchHit() bool {
	if !e.crashOnDispatch {
		return false
	}
	if e.flt.Hit(fault.EngineCrash, CrashTarget, int64(e.env.Now())) != nil {
		e.enterCrash()
		return true
	}
	return false
}

// enterCrash is the hard-crash fault point. It is idempotent: a second
// trigger on an already-dead card is a no-op.
func (e *Engine) enterCrash() {
	if e.dead {
		return
	}
	now := e.env.Now()
	e.dead = true
	e.epoch++
	for _, f := range e.funcs {
		if f.ctl.Enabled() {
			f.ctl.Disable()
		}
	}
	// Bound namespaces lose their volatile translation state; recovery
	// rebuilds it from the checkpoint. Parked QoS-buffer entries stay
	// queued — the dispatcher keeps draining them, and the waiting commands
	// bail on the epoch check when they wake.
	for _, f := range e.funcs {
		ns := f.ns
		if ns == nil {
			continue
		}
		ns.mt = NewMappingTable(mtRows, e.cfg.ChunkBytes, ns.blockSize)
		ns.chunks = nil
	}
	dropped := 0
	for _, b := range e.backends {
		dropped += b.crashDropPending()
		// Latch the gate directly: closeGate's drain wait has no meaning on
		// a dead card, and abandonPending must NOT run — a dead engine
		// cannot post CQEs, so the host only learns of the loss through its
		// command timeouts (the honest in-doubt window).
		b.gateClosed = true
	}
	e.tr.Emit(now, trCrash, e.epoch, uint64(dropped), "")
	if e.onCrash != nil {
		e.onCrash(CrashInfo{At: int64(now), Epoch: e.epoch, Dropped: dropped})
	}
}

// crashDropPending forgets every outstanding backend command without
// completing it, in CID order. Admin waiters would hang forever on a silent
// drop (adminCmd waits unbounded), so those get a synthetic internal-error
// completion; I/O commands just vanish.
func (b *backend) crashDropPending() int {
	dropped := 0
	for cid, pend := range b.pending.All() {
		b.pending.Delete(cid)
		pend.q.Slots.Release()
		isAdmin := pend.q == b.admin
		done := pend.done
		pend.q, pend.done = nil, nil
		b.pendFree = append(b.pendFree, pend)
		if isAdmin {
			done(nvme.Completion{CID: cid, Status: nvme.StatusInternal})
			continue
		}
		b.inflight--
		b.mInflight.Dec(b.e.env.Now())
		dropped++
	}
	b.inflight = 0
	if b.drainEv != nil {
		b.drainEv.Trigger(nil)
	}
	return dropped
}

// TakeCheckpoint snapshots the bound namespaces and backend allocation
// state. Unbound namespace objects live in the BMS-Controller's management
// plane, which has its own persistence — the checkpoint covers only the
// card's per-function I/O state.
func (e *Engine) TakeCheckpoint() *Checkpoint {
	cp := &Checkpoint{}
	for _, f := range e.funcs {
		if f.ns == nil {
			continue
		}
		ns := f.ns
		cp.Namespaces = append(cp.Namespaces, NamespaceCheckpoint{
			Fn:      int(f.id),
			Name:    ns.Name,
			SizeLBA: ns.SizeLBA,
			QoS:     ns.qos.limits,
			Chunks:  append([]Entry(nil), ns.chunks...),
		})
	}
	for _, b := range e.backends {
		bc := BackendCheckpoint{
			Serial: b.dev.Config().Serial,
			Chunks: append([]bool(nil), b.chunks...),
		}
		for cid, pend := range b.pending.All() {
			if pend.q != b.admin {
				bc.PendingCIDs = append(bc.PendingCIDs, cid)
			}
		}
		cp.Backends = append(cp.Backends, bc)
	}
	return cp
}

// RestoreCheckpoint rebuilds the engine's volatile state from cp, in
// place: the bound Namespace objects keep their identity (external holders
// keep valid pointers), only their contents are reconstructed.
func (e *Engine) RestoreCheckpoint(cp *Checkpoint) error {
	for _, bc := range cp.Backends {
		b := e.backendBySerial(bc.Serial)
		if b == nil {
			return fmt.Errorf("engine: checkpoint names unknown backend %q", bc.Serial)
		}
		b.chunks = append(b.chunks[:0], bc.Chunks...)
	}
	for _, nc := range cp.Namespaces {
		if nc.Fn < 0 || nc.Fn >= len(e.funcs) {
			return fmt.Errorf("engine: checkpoint function %d out of range", nc.Fn)
		}
		ns := e.funcs[nc.Fn].ns
		if ns == nil {
			return fmt.Errorf("engine: checkpoint has namespace %q on function %d but none is bound", nc.Name, nc.Fn)
		}
		mt := NewMappingTable(mtRows, e.cfg.ChunkBytes, ns.blockSize)
		for i, ent := range nc.Chunks {
			if err := mt.Set(i, ent); err != nil {
				return fmt.Errorf("engine: checkpoint chunk %d of %q: %w", i, nc.Name, err)
			}
		}
		ns.Name = nc.Name
		ns.SizeLBA = nc.SizeLBA
		ns.mt = mt
		ns.chunks = append(ns.chunks[:0], nc.Chunks...)
		ns.qos = newQoSBucket(e.env, nc.QoS)
	}
	return nil
}

func (e *Engine) backendBySerial(serial string) *backend {
	for _, b := range e.backends {
		if b.dev.Config().Serial == serial {
			return b
		}
	}
	return nil
}

// Recover brings a crashed engine back from cp: restore the volatile
// state, clear the dead latch, and reopen the backend gates. Front-end
// functions stay disabled until the host driver re-enables them through CC
// during its re-attach — the order real hardware would see. The caller
// (the crash manager) sequences journal redo and driver re-attach around
// this.
func (e *Engine) Recover(cp *Checkpoint) error {
	if !e.dead {
		return fmt.Errorf("engine: recover on a live engine")
	}
	if err := e.RestoreCheckpoint(cp); err != nil {
		return err
	}
	e.dead = false
	for _, b := range e.backends {
		b.openGate()
	}
	e.tr.Emit(e.env.Now(), trRecover, e.epoch, 0, "")
	return nil
}

// journalAck reports one acknowledged write's physical placement to the
// crash manager. Callers only invoke it when onWriteAck is set.
func (e *Engine) journalAck(subs []subCommand) {
	exts := make([]WriteExtent, len(subs))
	for i, sub := range subs {
		exts[i] = WriteExtent{
			Backend: sub.ssd,
			NSID:    e.backends[sub.ssd].backendNSID,
			PhysLBA: sub.physLBA,
			Blocks:  sub.blocks,
		}
	}
	e.onWriteAck(exts)
}
