package sim

// Event is a one-shot occurrence in virtual time. Processes wait on events;
// callbacks attached with AddCallback run in scheduler context when the
// event fires. An Event carries an arbitrary value from the triggerer to the
// waiters.
type Event struct {
	env       *Env
	val       any
	pending   bool // scheduled on the queue but not yet fired
	processed bool // has fired
	aborted   bool
	pooled    bool // kernel-internal event, recycled after firing
	waiters   []*Proc
	callbacks []func(val any)
}

// NewEvent returns an untriggered event bound to the environment.
func (e *Env) NewEvent() *Event { return &Event{env: e} }

// Trigger schedules the event to fire at the current virtual time with the
// given value. Triggering an already-triggered event is a no-op, which makes
// completion signalling idempotent.
func (ev *Event) Trigger(val any) {
	ev.TriggerDelayed(0, val)
}

// TriggerDelayed schedules the event to fire after delay.
func (ev *Event) TriggerDelayed(delay Time, val any) {
	if ev.pending || ev.processed {
		return
	}
	ev.val = val
	ev.pending = true
	ev.env.push(ev.env.now+delay, ev)
}

// Fire fires the event now, inside the call, instead of queueing a
// zero-delay entry for it as Trigger does: callbacks run, then the waiting
// processes resume one after another in the order they began to wait, each
// running until it next blocks or returns; a pooled event is recycled; and
// Wait, WaitAny and WaitTimeout see exactly what they see after Trigger (a
// WaitAny loser is detached, a WaitTimeout winner aborts its timer). It
// costs no kernel event. Firing an event that was already triggered, fired
// or aborted is a no-op.
//
// The caller is normally in scheduler context — a Schedule callback or an
// event callback. A process may fire too (a recovery process handing an I/O
// back to the process that waits for it): the woken process then runs nested
// inside the caller's and hands back when it blocks. Either way the caller
// must be indifferent to what the woken code does before it yields, because
// that code now runs in the middle of the caller rather than after it and
// after everything else already queued for this instant. The safe shape is a waiter whose first act on waking is
// to block again (a Sleep that models the wake-up's own cost): it is back in
// the queue before Fire returns, and only the position of that next entry
// among same-instant ones differs from Trigger's.
func (ev *Event) Fire(val any) {
	if ev.pending || ev.processed {
		return
	}
	ev.val = val
	ev.env.fire(ev)
}

// Abort permanently prevents an untriggered event from firing. Processes
// already waiting stay blocked (use control messages, not Abort, to wake
// them); it mainly stops stale timeouts from running callbacks.
func (ev *Event) Abort() { ev.aborted = true }

// Triggered reports whether the event has been scheduled or has fired.
func (ev *Event) Triggered() bool { return ev.pending || ev.processed }

// Processed reports whether the event has fired.
func (ev *Event) Processed() bool { return ev.processed }

// AddCallback attaches fn to run in scheduler context when the event fires.
// If the event already fired, fn runs immediately.
func (ev *Event) AddCallback(fn func(val any)) {
	if ev.processed {
		fn(ev.val)
		return
	}
	ev.callbacks = append(ev.callbacks, fn)
}

// Timeout returns an event that fires after delay with value val.
func (e *Env) Timeout(delay Time, val any) *Event {
	ev := e.NewEvent()
	ev.TriggerDelayed(delay, val)
	return ev
}
