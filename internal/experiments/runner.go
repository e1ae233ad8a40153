package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"bmstore"
	"bmstore/internal/fault"
	"bmstore/internal/obs"
	"bmstore/internal/trace"
)

// Pool is a bounded worker pool for independent simulation rigs. Every cell
// of an experiment sweep (one fio case, one seed, one VM-count point) builds
// its own sim.Env and shares nothing with its siblings, so cells can execute
// on concurrent OS threads; the pool bounds how many do. Determinism is
// untouched by construction: parallelism lives between environments, never
// inside one, and callers assemble results by cell index rather than
// completion order.
type Pool struct {
	workers int
}

// NewPool returns a pool with the given worker bound; workers <= 0 means
// GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Each runs fn(i) for every i in [0, n), at most Workers at a time. It
// returns when all jobs have finished. A panicking job does not cancel its
// siblings; after all workers drain, Each re-panics deterministically with
// the panic of the lowest-indexed failed job, regardless of which worker or
// in which order the failures happened.
func (p *Pool) Each(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := p.workers
	if w > n {
		w = n
	}
	var (
		next     int64 = -1
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicIdx = -1
		panicVal any
	)
	runJob := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if panicIdx < 0 || i < panicIdx {
					panicIdx, panicVal = i, r
				}
				mu.Unlock()
			}
		}()
		fn(i)
	}
	if w == 1 {
		// Serial fast path: same goroutine, same panic discipline.
		for i := 0; i < n; i++ {
			runJob(i)
		}
	} else {
		wg.Add(w)
		for k := 0; k < w; k++ {
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&next, 1))
					if i >= n {
						return
					}
					runJob(i)
				}
			}()
		}
		wg.Wait()
	}
	if panicIdx >= 0 {
		panic(fmt.Sprintf("experiments: job %d panicked: %v", panicIdx, panicVal))
	}
}

// Harness bundles the cross-cutting configuration of an experiment run: the
// scale, the worker pool that cells fan out on, and (optionally) a family of
// per-rig determinism tracers. Every experiment takes a *Harness; tests and
// benchmarks use Serial, `bmsctl sweep` builds one from its flags.
type Harness struct {
	Scale   Scale
	pool    *Pool
	traces  *trace.Set
	metrics *obs.Set
	faults  []fault.Rule
}

// NewHarness returns a harness running at the given scale with up to
// parallel concurrent rigs (<= 0 means GOMAXPROCS). traces may be nil for
// zero-cost untraced runs; when set, every rig the harness configures gets
// its own child tracer, and traces.Digest() afterwards covers the whole
// sweep independent of execution interleaving.
func NewHarness(sc Scale, parallel int, traces *trace.Set) *Harness {
	return &Harness{Scale: sc, pool: NewPool(parallel), traces: traces}
}

// WithMetrics attaches a family of per-rig metrics registries: every rig the
// harness configures gets its own child registry, and the set's exports
// afterwards are byte-identical regardless of the worker bound. Returns the
// harness for chaining; a nil set leaves metrics off.
func (h *Harness) WithMetrics(set *obs.Set) *Harness {
	h.metrics = set
	return h
}

// WithFaults arms the same declarative fault schedule on every rig the
// harness configures (each rig builds its own injector state, so parallel
// sweeps stay independent). Injected faults change results, so a faulted
// sweep is for debugging and availability studies, not the fidelity gate.
// Returns the harness for chaining; an empty slice leaves injection off.
func (h *Harness) WithFaults(rules []fault.Rule) *Harness {
	h.faults = rules
	return h
}

// Parallelism returns the harness's worker bound.
func (h *Harness) Parallelism() int { return h.pool.Workers() }

// each fans n cells out on the pool.
func (h *Harness) each(n int, fn func(i int)) { h.pool.Each(n, fn) }

// config returns the testbed configuration for one named rig: DefaultConfig
// plus the seed, with the harness's cross-cutting wiring (tracer, metrics,
// faults) composed through the bmstore.Option API. Rig names
// must be unique across the run; the convention is "<experiment>/<cell>".
func (h *Harness) config(rig string, seed int64) bmstore.Config {
	cfg := bmstore.DefaultConfig()
	cfg.Seed = seed
	return cfg.With(h.Options(rig)...)
}

// Options returns the per-rig option slice the harness would compose into a
// config: the rig's child tracer and metrics registry and the shared fault
// schedule. Exposed so drivers that build their own Config (the fleet
// simulator) reuse the exact wiring.
func (h *Harness) Options(rig string) []bmstore.Option {
	var opts []bmstore.Option
	if h.traces != nil {
		opts = append(opts, bmstore.WithTrace(h.traces.Tracer(rig)))
	}
	if h.metrics != nil {
		opts = append(opts, bmstore.WithMetrics(h.metrics.Registry(rig)))
	}
	if len(h.faults) > 0 {
		opts = append(opts, bmstore.WithFaults(h.faults...))
	}
	return opts
}
