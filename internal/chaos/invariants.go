package chaos

import (
	"fmt"

	"bmstore/internal/fault"
	"bmstore/internal/host"
)

// Stall mirrors the sim watchdog's structured diagnosis for a run that
// failed to finish.
type Stall struct {
	At         int64
	HorizonHit bool
	Pending    int
	Blocked    []string
}

// Report is the complete evidence a finished chaos run leaves behind; Check
// turns it into findings.
type Report struct {
	Schedule Schedule
	// Injected is the rig injector's total firing count; Fired the
	// per-point split (only points with nonzero counts need be present).
	Injected uint64
	Fired    map[fault.Point]uint64

	// Counters is the tenant driver's CID accounting at quiesce.
	Counters host.IOCounters

	// Crash selects the crash-recovery invariant regime: the rig killed
	// and recovered the engine, so timed-out CIDs may have been force-
	// reclaimed at re-attach (their straggler CQE died with the card)
	// instead of reaped by a late completion. Everything else — CID
	// conservation, no spurious CQEs, no acked-write loss — stays as
	// strict as ever.
	Crash bool

	// Workload tallies: acknowledged operations and clean I/O errors.
	Writes    uint64
	Reads     uint64
	WriteErrs uint64
	ReadErrs  uint64
	InDoubt   uint64 // write episodes that ended indeterminate

	Violations   []Violation
	ViolOverflow int

	// Stall is non-nil when the liveness watchdog stopped the run.
	Stall *Stall
}

// Finding is one violated invariant.
type Finding struct {
	Name   string // stable invariant identifier
	Detail string
}

func (f Finding) String() string { return f.Name + ": " + f.Detail }

// Check evaluates every invariant against the report and returns the
// violations (empty = the run is green). The invariant regime depends on
// the schedule: benign schedules must verify perfectly clean, hazard
// schedules must show violations of exactly the classes their injected
// hazards imply — including the detection guarantees (a fired media-corrupt
// MUST be caught; a fired misdirected-read MUST be caught).
func Check(r *Report) []Finding {
	var fs []Finding
	fail := func(name, format string, args ...any) {
		fs = append(fs, Finding{Name: name, Detail: fmt.Sprintf(format, args...)})
	}

	// Liveness: the run must have finished under the watchdog.
	if r.Stall != nil {
		kind := "deadlock"
		if r.Stall.HorizonHit {
			kind = "no completion before horizon"
		}
		fail("liveness", "%s at t=%dns: %d events pending, blocked %v",
			kind, r.Stall.At, r.Stall.Pending, r.Stall.Blocked)
	}

	// CID accounting: no completion lost, none duplicated.
	c := r.Counters
	if c.Submitted != c.Completed+c.Timeouts {
		fail("completion-lost", "submitted %d != completed %d + timeouts %d",
			c.Submitted, c.Completed, c.Timeouts)
	}
	if c.Spurious != 0 {
		fail("completion-duplicated", "%d spurious CQEs (CID matched neither a waiter nor a zombie)", c.Spurious)
	}
	if c.ZombiesLeft != 0 {
		fail("zombie-cids", "%d timed-out CIDs never reclaimed by a straggler CQE", c.ZombiesLeft)
	}

	// Recovery bookkeeping consistent with itself and the injections.
	if c.Aborts != c.Timeouts {
		fail("abort-accounting", "aborts %d != timeouts %d (one abort per timed-out command)", c.Aborts, c.Timeouts)
	}
	if r.Crash {
		// A dead card posts no straggler CQEs: every timeout ends either
		// reaped by a late completion (pre-crash or post-recovery) or
		// force-reclaimed at re-attach. Both paths must still account for
		// every timed-out CID exactly once.
		if c.Stragglers+c.Reclaimed != c.Timeouts {
			fail("straggler-accounting", "stragglers %d + reclaimed %d != timeouts %d at quiesce",
				c.Stragglers, c.Reclaimed, c.Timeouts)
		}
	} else {
		if c.Stragglers != c.Timeouts {
			fail("straggler-accounting", "stragglers %d != timeouts %d at quiesce", c.Stragglers, c.Timeouts)
		}
		if c.Reclaimed != 0 {
			fail("unexplained-reclaims", "%d CIDs force-reclaimed on a run with no crash", c.Reclaimed)
		}
	}
	if r.InDoubt > c.Timeouts {
		fail("in-doubt-accounting", "%d in-doubt writes but only %d timeouts", r.InDoubt, c.Timeouts)
	}
	if c.Timeouts > 0 && r.Injected == 0 {
		fail("unexplained-timeouts", "%d timeouts with zero injected faults", c.Timeouts)
	}
	if c.Retries > 0 && r.Injected == 0 {
		fail("unexplained-retries", "%d retries with zero injected faults", c.Retries)
	}

	// Generated schedules are recoverable by construction: every I/O must
	// eventually succeed (indeterminate writes are tracked separately).
	if r.WriteErrs != 0 || r.ReadErrs != 0 {
		fail("io-errors", "%d write / %d read errors surfaced past driver recovery", r.WriteErrs, r.ReadErrs)
	}
	if r.Writes == 0 || r.Reads == 0 {
		fail("no-coverage", "workload acked %d writes / %d reads — nothing verified", r.Writes, r.Reads)
	}

	// The oracle's verdict, under the schedule's regime.
	if !r.Schedule.Hazard {
		if n := len(r.Violations) + r.ViolOverflow; n != 0 {
			first := "all past the storage cap"
			if len(r.Violations) > 0 {
				first = r.Violations[0].String()
			}
			fail("integrity", "benign schedule produced %d data-integrity violations (first: %s)",
				n, first)
		}
		for _, pt := range []fault.Point{fault.MediaCorrupt, fault.WriteTorn, fault.ReadMisdirect} {
			if r.Fired[pt] != 0 {
				fail("hazard-leak", "benign schedule fired %d %s injections", r.Fired[pt], pt)
			}
		}
		return fs
	}

	// Hazard schedule: every violation must be of a class the injected
	// hazards can cause...
	allowed := allowedClasses(r.Schedule.Rules)
	for _, v := range r.Violations {
		if !allowed[v.Class] {
			fail("unexplained-violation", "%s not implied by the injected hazards %v",
				v, r.Schedule.HazardPoints())
		}
	}
	// ...and the always-detectable hazards must actually have been caught.
	// media-corrupt fires on a read of live data, so the flipped byte is in
	// the very payload the oracle checks; misdirected-read serves another
	// LBA's tag (or unwritten zeros) in place of prefilled data. torn-write
	// carries no such guarantee — a later rewrite of the same LBA can mask
	// it — so its detection is proven by planted unit tests instead.
	if r.Fired[fault.MediaCorrupt] > 0 && countClass(r.Violations, ClassCorrupt) == 0 {
		fail("detector-miss", "media-corrupt fired %d times but no corrupt read-back was caught",
			r.Fired[fault.MediaCorrupt])
	}
	if r.Fired[fault.ReadMisdirect] > 0 &&
		countClass(r.Violations, ClassMisdirected)+countClass(r.Violations, ClassLost) == 0 {
		fail("detector-miss", "misdirected-read fired %d times but no misdirection was caught",
			r.Fired[fault.ReadMisdirect])
	}
	return fs
}

// allowedClasses maps the schedule's hazard rules to the violation classes
// they can legitimately produce. torn-write implies Stale as well as Torn
// (a multi-block torn op leaves whole tail blocks on the old generation);
// misdirected-read implies Lost as well as Misdirected (the neighbour may
// be unwritten, reading back as zeros).
func allowedClasses(rules []fault.Rule) map[Class]bool {
	m := make(map[Class]bool)
	for _, r := range rules {
		switch r.Point {
		case fault.MediaCorrupt:
			m[ClassCorrupt] = true
		case fault.WriteTorn:
			m[ClassTorn] = true
			m[ClassStale] = true
		case fault.ReadMisdirect:
			m[ClassMisdirected] = true
			m[ClassLost] = true
		}
	}
	return m
}

func countClass(vs []Violation, c Class) int {
	n := 0
	for _, v := range vs {
		if v.Class == c {
			n++
		}
	}
	return n
}
