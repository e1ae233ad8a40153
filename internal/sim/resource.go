package sim

// Resource is a counted semaphore over virtual time: a pool of identical
// service units (NAND dies, polling cores, link credits). Acquire blocks the
// calling process until a unit is free; requests are granted FIFO.
type Resource struct {
	env     *Env
	cap     int
	inUse   int
	waiters FIFO[*Event]
}

// NewResource returns a resource with capacity units.
func NewResource(env *Env, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{env: env, cap: capacity}
}

// InUse returns the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// Acquire obtains one unit, blocking until available. The waiter event is
// pooled: it never escapes this function (Wait's return value travels in the
// resume message, not through the event), so the kernel recycles it the
// moment it fires and a contended Acquire allocates nothing at steady state.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap {
		r.inUse++
		return
	}
	ev := r.env.pooledEvent()
	r.waiters.Push(ev)
	p.Wait(ev)
}

// AcquireTimeout is Acquire bounded by d: false means no unit came free in
// time and the caller holds none. A unit free at once costs no timer and no
// event. A caller that gives up stays in the waiter queue as an aborted
// event, which Release steps over. It is AcquireTimeoutCB with the caller
// parked until the callback runs.
func (r *Resource) AcquireTimeout(p *Proc, d Time) bool {
	var got, ended bool
	var wake *Event
	r.AcquireTimeoutCB(d, func(ok bool) {
		got, ended = ok, true
		if wake != nil {
			wake.Fire(nil)
		}
	})
	if !ended {
		wake = r.env.pooledEvent()
		p.Wait(wake)
	}
	return got
}

// AcquireCB obtains one unit for callback-chain callers: when a unit is
// immediately free, cb runs synchronously — the same program point where
// Acquire returns without blocking. Otherwise cb runs in scheduler context
// when Release hands this caller a unit, at exactly the queue position where
// Acquire's blocked waiter would have resumed, so mixing AcquireCB and
// Acquire callers on one resource preserves FIFO grant order and timing.
// The waiter event comes from the kernel free list and never escapes, so a
// contended AcquireCB costs no allocation beyond cb itself (the I/O data
// path passes a callback stored once in a pooled per-command record).
func (r *Resource) AcquireCB(cb func(val any)) {
	if r.inUse < r.cap {
		r.inUse++
		cb(nil)
		return
	}
	ev := r.env.pooledEvent()
	ev.callbacks = append(ev.callbacks, cb)
	r.waiters.Push(ev)
}

// AcquireTimeoutCB is AcquireTimeout for callback-chain callers: cb(true)
// once a unit is held, cb(false) once d passed without one. A free unit runs
// cb(true) synchronously; otherwise the waiter event and the timer are queued
// exactly as AcquireTimeout queues them, and cb runs where its blocked caller
// would have resumed — on the grant, or on the timer (true if Release passed
// the unit in the timer's own instant).
func (r *Resource) AcquireTimeoutCB(d Time, cb func(ok bool)) {
	if r.inUse < r.cap {
		r.inUse++
		cb(true)
		return
	}
	// Not pooled: the waiter event may be abandoned in the queue.
	w := &timedAcquire{cb: cb, ev: r.env.NewEvent()}
	r.waiters.Push(w.ev)
	w.timer = r.env.Timeout(d, nil)
	w.ev.callbacks = append(w.ev.callbacks, w.granted)
	w.timer.callbacks = append(w.timer.callbacks, w.expired)
}

// timedAcquire is one AcquireTimeoutCB caller in the waiter queue.
type timedAcquire struct {
	cb        func(ok bool)
	ev, timer *Event
	settled   bool
}

func (w *timedAcquire) granted(any) {
	if w.settled {
		return // the timer settled it, counting this grant in
	}
	w.settled = true
	w.timer.Abort()
	w.cb(true)
}

func (w *timedAcquire) expired(any) {
	w.settled = true
	if w.ev.Triggered() {
		w.cb(true)
		return
	}
	w.ev.Abort()
	w.cb(false)
}

// TryAcquire obtains a unit only if one is immediately free.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.cap {
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit, waking the oldest waiter still waiting, if any.
// The unit is transferred directly to the waiter, so capacity accounting
// stays exact.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource")
	}
	for r.waiters.Len() > 0 {
		if ev := r.waiters.Pop(); !ev.aborted {
			ev.Trigger(nil) // unit passes to the waiter; inUse unchanged
			return
		}
	}
	r.inUse--
}
