package bmstore

import (
	"bmstore/internal/sim"
	"bmstore/internal/trace"
)

// Scenario is one self-contained simulation run whose behaviour must be a
// pure function of its Config (the seed included). Body receives the fully
// built testbed and runs as the root simulation process — exactly like
// Testbed.Run. The determinism helpers below build the rig fresh for every
// execution, so a Scenario can be replayed any number of times.
type Scenario struct {
	Config Config
	// Direct builds the direct-attached rig (NewDirectTestbed) instead of
	// the full BM-Store rig.
	Direct bool
	Body   func(tb *Testbed, p *sim.Proc)
}

// Run executes the scenario once on a fresh rig built from Config with opts
// applied on top, and returns the finished testbed (clock, injector and
// metrics are still readable on it).
func (s Scenario) Run(opts ...Option) *Testbed {
	var tb *Testbed
	var err error
	if s.Direct {
		tb, err = NewDirectTestbed(s.Config, opts...)
	} else {
		tb, err = NewBMStoreTestbed(s.Config, opts...)
	}
	if err != nil {
		// A scenario is a fixed, known-good configuration; failing to build
		// it is a bug in the scenario, not a run-time condition.
		panic("bmstore: scenario testbed: " + err.Error())
	}
	tb.Run(func(p *sim.Proc) { s.Body(tb, p) })
	return tb
}

// TraceDigest executes the scenario once with a digest tracer attached and
// returns the canonical event-stream digest plus the number of events it
// covers. The digest folds in every scheduler event, engine pipeline stage,
// MI exchange, host doorbell/completion and SSD media operation with its
// virtual timestamp — two runs behaved identically iff their digests match.
func (s Scenario) TraceDigest() (digest string, events uint64) {
	tr := trace.NewDigest()
	s.Run(WithTrace(tr))
	return tr.Digest(), tr.Events()
}

// DeterminismCheck replays the scenario twice from scratch and reports both
// digests and whether they are identical. It is the machine check behind
// the simulator's core claim: same seed, bit-identical virtual-time
// behaviour. CI runs it over the representative testbeds (see
// internal/trace/replay_test.go); model code that introduces wall-clock
// time, unseeded randomness or map-iteration-order dependence fails it.
func DeterminismCheck(s Scenario) (first, second string, ok bool) {
	first, n1 := s.TraceDigest()
	second, n2 := s.TraceDigest()
	return first, second, first == second && n1 == n2
}
