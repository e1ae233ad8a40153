package sim

import "fmt"

// Proc is a simulation process: sequential code that advances virtual time
// by blocking on events. All Proc methods must be called from within the
// process's own function. The function runs on a coroutine borrowed from the
// environment's pool from its first activation until it returns; a finished
// Proc holds neither the coroutine nor the function.
type Proc struct {
	env    *Env
	id     uint64 // spawn sequence number; orders deterministic shutdown
	name   string
	fn     func(p *Proc) // the body, until it starts
	co     *coro         // the coroutine running the body, while it runs
	done   bool
	doneEv *Event // nil for a process started in place
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Done returns an event that fires when the process function returns, or nil
// for a process started in place (Env.Start).
func (p *Proc) Done() *Event { return p.doneEv }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// run executes the process body on the current coroutine. The bookkeeping
// is deferred so that it also happens when the body panics or exits via
// runtime.Goexit — notably when a test calls t.FailNow inside a process.
func (p *Proc) run() {
	defer func() {
		p.done, p.co = true, nil
		delete(p.env.live, p)
		if p.doneEv != nil {
			p.doneEv.Trigger(nil)
		}
	}()
	defer func() {
		if r := recover(); r != nil && r != errAborted {
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
		}
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
}

// yield switches back to the scheduler and returns when the process is
// resumed.
func (p *Proc) yield() resumeMsg {
	c := p.co
	c.yield(struct{}{})
	m := c.msg
	c.msg = resumeMsg{}
	if m.abort {
		panic(errAborted)
	}
	return m
}

// Wait blocks until ev fires and returns its value. If ev already fired,
// Wait returns immediately without advancing time.
func (p *Proc) Wait(ev *Event) any {
	if ev.processed {
		return ev.val
	}
	ev.waiters = append(ev.waiters, p)
	return p.yield().val
}

// Sleep advances the process's local time by d. The timer event comes from
// the environment's free list — it never escapes this function, so it is
// recycled as soon as it fires, keeping Sleep allocation-free at steady
// state.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		return
	}
	e := p.env
	ev := e.pooledEvent()
	ev.pending = true
	ev.waiters = append(ev.waiters, p)
	e.push(e.now+d, ev)
	p.yield()
}

// WaitAny blocks until the first of evs fires and returns that event. Events
// that already fired win immediately (earliest in the argument list).
func (p *Proc) WaitAny(evs ...*Event) *Event {
	for _, ev := range evs {
		if ev.processed {
			return ev
		}
	}
	for _, ev := range evs {
		ev.waiters = append(ev.waiters, p)
	}
	m := p.yield()
	// Remove p from the other events' waiter lists so a later firing does
	// not try to resume a process that moved on.
	for _, ev := range evs {
		if ev == m.ev {
			continue
		}
		ev.removeWaiter(p)
	}
	return m.ev
}

// WaitTimeout waits for ev at most d. It returns the event value and true if
// ev fired first, or nil and false on timeout.
func (p *Proc) WaitTimeout(ev *Event, d Time) (any, bool) {
	to := p.env.Timeout(d, nil)
	won := p.WaitAny(ev, to)
	if won == ev {
		to.Abort()
		return ev.val, true
	}
	return nil, false
}

func (ev *Event) removeWaiter(p *Proc) {
	for i, w := range ev.waiters {
		if w == p {
			ev.waiters = append(ev.waiters[:i], ev.waiters[i+1:]...)
			return
		}
	}
}
