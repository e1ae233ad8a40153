package fio

import (
	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
)

// Tenants is a set of closed tenant loops that run until stopped: the
// workload of the availability experiments (the fleet's hosts, Table IX),
// where Run measures a fixed window. Each loop submits single-block I/Os at
// a uniform LBA below 1<<20, at queue depth 1 over its own device, each at
// the completion of the one before: a closed loop of callbacks over
// host.BlockDevice.Submit, every step at the instant a process looping over
// ReadAt would take it, at no coroutine resume.
type Tenants struct {
	env  *sim.Env
	stop *sim.Event
	hook func(oc host.IOOutcome, lat sim.Time)
	left int        // loops still running
	wake *sim.Event // Drain's wait for the last of them
}

// NewTenants returns a set with no loops. Every loop calls hook at each of
// its I/Os' completion, with the outcome and the latency, before it submits
// the next.
func NewTenants(env *sim.Env, hook func(oc host.IOOutcome, lat sim.Time)) *Tenants {
	return &Tenants{env: env, stop: env.NewEvent(), hook: hook}
}

// Start adds a loop over dev that draws from rng. RandRead reads,
// RandWrite writes, and RandRW draws each I/O's direction, a fair coin,
// after its LBA. The first I/O goes out at a zero-delay queue entry of its
// own, where a process started now would begin.
func (ts *Tenants) Start(dev host.BlockDevice, rng *sim.Rand, pattern Pattern) {
	l := &loop{ts: ts, dev: dev, rng: rng, pattern: pattern}
	l.done = l.complete
	ts.left++
	ts.env.Schedule(0, l.submit)
}

// Stop ends every loop at its next submission; an I/O in flight still
// completes and reaches the hook.
func (ts *Tenants) Stop() { ts.stop.Trigger(nil) }

// Drain parks p until every loop has ended, so that what p reads next sees
// quiesced queues. Call it after Stop.
func (ts *Tenants) Drain(p *sim.Proc) {
	if ts.left > 0 {
		ts.wake = ts.env.PooledEvent()
		p.Wait(ts.wake)
	}
}

// loopEnded counts a loop out, in a zero-delay queue entry of its own where
// a process's Done event would fire: the last one wakes Drain.
func (ts *Tenants) loopEnded() {
	if ts.left--; ts.left == 0 && ts.wake != nil {
		ts.wake.Fire(nil)
	}
}

// loop is one tenant: draw, submit, and on completion report and go again.
type loop struct {
	ts      *Tenants
	dev     host.BlockDevice
	rng     *sim.Rand
	pattern Pattern
	t0      sim.Time
	done    func(host.IOOutcome) // complete, bound once
}

func (l *loop) submit() {
	ts := l.ts
	if ts.stop.Processed() {
		ts.env.Schedule(0, ts.loopEnded)
		return
	}
	lba := uint64(l.rng.Intn(1 << 20))
	op := uint8(nvme.IORead)
	if l.pattern == RandWrite || l.pattern == RandRW && l.rng.Intn(2) == 0 {
		op = nvme.IOWrite
	}
	l.t0 = ts.env.Now()
	l.dev.Submit(op, lba, 1, nil, l.done)
}

func (l *loop) complete(oc host.IOOutcome) {
	l.ts.hook(oc, l.ts.env.Now()-l.t0)
	l.submit()
}
