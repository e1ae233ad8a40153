// Package fault is the testbed's deterministic fault-injection subsystem.
// Faults are declarative schedules — "at virtual time T (or on the Nth
// matching operation), make this component misbehave" — evaluated against
// virtual time and operation order only, never wall clocks or RNGs, so a
// faulted run is exactly as reproducible as a clean one: same seed, same
// rules, same trace digest.
//
// The package follows the same nil-means-free discipline as internal/trace
// and internal/obs: an Injector is attached per rig through
// bmstore.WithFaults (which hands it to sim.Env before any component is
// built), components cache the pointer at construction, and a nil injector
// costs one pointer compare per potential injection point. Injection points
// live in the components' callers-of-truth (the SSD command pipeline, the
// PCIe port transfer paths, MCTP receive, the engine's backend submitter)
// but the *policy* — what fails, when, how often — lives entirely here, so
// component code never grows scenario-specific branches.
//
// Timestamps are plain int64 nanoseconds rather than sim.Time so this
// package has no simulation dependency and internal/sim can import it (the
// same layering trick internal/obs uses).
package fault

// Point identifies one class of injection point in the testbed.
type Point uint8

// Injection points. Op-triggered points (media, admin, PCIe, MCTP) fire on
// individual matching operations; window points (stalls) are active for a
// [At, At+Duration) interval; SSDDrop arms at At and is permanent — the
// device has been surprise-removed.
const (
	// SSDMediaRead fires on NVM read commands inside the SSD: inject a
	// media status error and/or a latency spike, optionally only on
	// operations landing on one NAND die.
	SSDMediaRead Point = iota
	// SSDAdmin fires on SSD admin commands: inject an admin status error.
	SSDAdmin
	// SSDStall is a window during which the SSD controller stops fetching
	// SQEs (a firmware hiccup); queued commands resume when it ends.
	SSDStall
	// SSDDrop surprise-removes the SSD at time At: doorbells are lost,
	// fetch stops, in-flight completions never post, Ready() goes false.
	SSDDrop
	// PCIeXfer fires on DMA transfers crossing a link: the transaction is
	// replayed, adding Duration (default 1 µs) to its completion time.
	PCIeXfer
	// MCTPRx fires on received MCTP packets: the packet is dropped on the
	// out-of-band management path.
	MCTPRx
	// BackendSubmit is a window during which the engine's backend
	// submitter for the target SSD stalls before pushing commands.
	BackendSubmit
	// MediaCorrupt fires on NVM read commands inside the SSD: the payload
	// returned over DMA has a byte flipped — the command still completes
	// with success, modelling silent media corruption past the device's
	// ECC. Data-hazard point: it needs ssd.Config.CaptureData to bite.
	MediaCorrupt
	// WriteTorn fires on NVM write commands inside the SSD: only the
	// first half of the payload reaches the media, yet the command
	// completes with success — an acknowledged-but-torn write (power-cut
	// tearing past the capacitor-backed cache). Data-hazard point.
	WriteTorn
	// ReadMisdirect fires on NVM read commands inside the SSD: the data
	// returned comes from the neighbouring LBA (an FTL mapping slip), the
	// status is success, and timing is untouched. Data-hazard point.
	ReadMisdirect
	// EngineCrash hard-crashes the BM-Engine card: at time At (or on the
	// Nth engine dispatch when Nth is set) the engine atomically loses its
	// volatile state — in-flight commands vanish without completions,
	// doorbells are ignored, the write-back cache of journaled writes is
	// lost. Recovery (checkpoint restore + journal redo + host re-attach)
	// is driven by internal/crash when the rig arms it; without a crash
	// manager the engine simply stays dead, like SSDDrop.
	EngineCrash
	numPoints
)

// String returns the spec-language name of the point.
func (pt Point) String() string {
	switch pt {
	case SSDMediaRead:
		return "media"
	case SSDAdmin:
		return "admin"
	case SSDStall:
		return "ssd-stall"
	case SSDDrop:
		return "ssd-drop"
	case PCIeXfer:
		return "pcie-replay"
	case MCTPRx:
		return "mctp-drop"
	case BackendSubmit:
		return "backend-stall"
	case MediaCorrupt:
		return "media-corrupt"
	case WriteTorn:
		return "torn-write"
	case ReadMisdirect:
		return "misdirected-read"
	case EngineCrash:
		return "engine-crash"
	}
	return "?"
}

// DataHazard reports whether the point silently damages payload bytes
// instead of surfacing as a status error, stall, or drop. Data-hazard
// rules only bite when the rig captures real data (ssd.Config.CaptureData),
// so configurations are validated up front rather than vacuously passing.
func (pt Point) DataHazard() bool {
	switch pt {
	case MediaCorrupt, WriteTorn, ReadMisdirect:
		return true
	}
	return false
}

// HasDataHazards reports whether any rule in the set is a data-hazard rule.
func HasDataHazards(rules []Rule) bool {
	for _, r := range rules {
		if r.Point.DataHazard() {
			return true
		}
	}
	return false
}

// Rule is one declarative fault. The zero values of the optional fields
// mean "unconstrained": empty Target matches any component of the point's
// class, zero At arms the rule from simulation start, zero Nth fires from
// the first matching operation, zero Count means fire once (use a negative
// Count for "every matching operation"), zero Die matches any die. At,
// Duration and Die are never negative in a rule ParseSpec returns.
type Rule struct {
	Point  Point
	Target string // SSD serial, link name, or endpoint name; "" = any
	At     int64  // virtual time (ns) the rule arms
	Nth    uint64 // op-triggered: fire starting at the Nth matching op (1-based) after At
	Count  int    // op-triggered: number of firings (0 = 1, negative = unlimited)
	// Duration is the injected latency for op-triggered points and the
	// window length for stall points (ns).
	Duration int64
	// Status is the NVMe status injected by SSDMediaRead/SSDAdmin rules
	// (raw 15-bit status value; 0 on a media rule means latency-only).
	Status uint16
	// Die restricts SSDMediaRead rules to operations whose first stripe
	// lands on one NAND die, as a 1-based index (Die 1 = die 0); 0 matches
	// every die.
	Die int
}

// ruleState is one rule plus its firing bookkeeping.
type ruleState struct {
	Rule
	seen  uint64 // matching ops observed at/after At
	fired uint64 // times this rule has injected
}

// budget returns how many times the rule may still fire.
func (r *ruleState) exhausted() bool {
	if r.Count < 0 {
		return false
	}
	max := uint64(1)
	if r.Count > 0 {
		max = uint64(r.Count)
	}
	return r.fired >= max
}

// Injector evaluates a rule set. It is stateful (operation counters), so an
// Injector belongs to exactly one rig; build one per environment from a
// shared []Rule. All methods are nil-safe no-ops.
type Injector struct {
	rules    []*ruleState
	injected uint64
	firedBy  [numPoints]uint64
}

// New builds an injector over a copy of rules.
func New(rules ...Rule) *Injector {
	in := &Injector{}
	for _, r := range rules {
		in.rules = append(in.rules, &ruleState{Rule: r})
	}
	return in
}

// match reports whether the rule applies to (pt, target) and is armed at
// now. Rules with an empty Target match any target.
func (r *ruleState) match(pt Point, target string, now int64) bool {
	return r.Point == pt && now >= r.At && (r.Target == "" || r.Target == target)
}

// hit implements the op-triggered evaluation shared by Hit and HitMedia.
func (in *Injector) hit(pt Point, target string, die int, now int64) *Rule {
	if in == nil {
		return nil
	}
	var out *Rule
	for _, r := range in.rules {
		if !r.match(pt, target, now) {
			continue
		}
		if pt == SSDMediaRead && r.Die != 0 && r.Die-1 != die {
			continue
		}
		r.seen++
		if r.exhausted() {
			continue
		}
		nth := r.Nth
		if nth == 0 {
			nth = 1
		}
		if r.seen < nth {
			continue
		}
		r.fired++
		in.injected++
		in.firedBy[pt]++
		if out == nil { // first matching rule wins; later ones still count ops
			out = &r.Rule
		}
	}
	return out
}

// Hit evaluates op-triggered rules for one operation at an injection point
// and returns the firing rule, or nil. Each call counts as one matching
// operation for every armed rule of (pt, target).
func (in *Injector) Hit(pt Point, target string, now int64) *Rule {
	return in.hit(pt, target, -1, now)
}

// HitMedia is Hit for SSDMediaRead operations, with die matching: die is
// the NAND die the operation's first stripe lands on.
func (in *Injector) HitMedia(target string, die int, now int64) *Rule {
	return in.hit(SSDMediaRead, target, die, now)
}

// StallUntil returns the end of the latest stall window of (pt, target)
// covering now, or 0 when none is active. The caller sleeps until the
// returned time. A window counts as one injection the first time it is
// observed active.
func (in *Injector) StallUntil(pt Point, target string, now int64) int64 {
	if in == nil {
		return 0
	}
	var end int64
	for _, r := range in.rules {
		if !r.match(pt, target, now) {
			continue
		}
		we := r.At + r.Duration
		if now >= we {
			continue
		}
		if r.fired == 0 {
			r.fired++
			in.injected++
			in.firedBy[pt]++
		}
		if we > end {
			end = we
		}
	}
	return end
}

// Dropped reports whether a surprise-drop rule for target has armed. The
// first positive answer counts as one injection.
func (in *Injector) Dropped(target string, now int64) bool {
	if in == nil {
		return false
	}
	for _, r := range in.rules {
		if r.Point != SSDDrop || !r.match(SSDDrop, target, now) {
			continue
		}
		if r.fired == 0 {
			r.fired++
			in.injected++
			in.firedBy[SSDDrop]++
		}
		return true
	}
	return false
}

// Injected returns how many faults have fired so far.
func (in *Injector) Injected() uint64 {
	if in == nil {
		return 0
	}
	return in.injected
}

// InjectedBy returns how many faults have fired at one injection point.
// The per-point split is what lets a chaos invariant checker demand "a
// fired media-corrupt rule must produce a corrupt-read-back violation"
// without parsing the trace.
func (in *Injector) InjectedBy(pt Point) uint64 {
	if in == nil || pt >= numPoints {
		return 0
	}
	return in.firedBy[pt]
}

// Rules returns a copy of the configured rules (without firing state).
func (in *Injector) Rules() []Rule {
	if in == nil {
		return nil
	}
	out := make([]Rule, len(in.rules))
	for i, r := range in.rules {
		out[i] = r.Rule
	}
	return out
}
