package chaos

import (
	"math/rand"

	"bmstore/internal/fault"
)

// Targets names the components a schedule may aim rules at.
type Targets struct {
	SSDs  []string // SSD serials (media, stall, hazard and backend rules)
	Links []string // PCIe link names (replay rules)
}

// Schedule is one generated chaos run: a reproducible rule set plus the
// invariant regime it must be checked under.
type Schedule struct {
	Seed int64
	// Hazard schedules inject silent data damage (media-corrupt,
	// torn-write, misdirected-read) and are expected to produce matching
	// oracle violations; benign schedules inject only recoverable faults
	// (retryable errors, latency, stalls) and must verify completely clean.
	Hazard bool
	Rules  []fault.Rule
}

// Generation timing bounds. Rules arm inside [minAt, maxAt) so they land
// during the verify workload's prefill/churn window rather than after it.
const (
	minAt = 1_000_000 // 1 ms
	maxAt = 8_000_000 // 8 ms
)

// Generation shape: at most maxRules rules per schedule, and a schedule is
// a hazard schedule with probability hazardNumerator/32 (an even split).
const (
	maxRules        = 4
	hazardNumerator = 16
)

// Generate derives the fault schedule for seed, deterministically: the same
// (seed, targets) pair always yields the identical schedule, so a
// failing seed replays exactly.
//
// Benign schedules draw only from faults the recovering driver absorbs:
// retryable media errors, media latency spikes, SSD fetch stalls, PCIe
// replays and backend submit stalls — never surprise drops (unrecoverable)
// and never error statuses marked non-retryable. Hazard schedules draw one
// or two silent data hazards plus optional latency-only companions; they
// exclude stalls and error statuses so a host-side timeout can never retry
// away a fired hazard before the oracle sees it.
func Generate(seed int64, tg Targets) Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{Seed: seed, Hazard: rng.Intn(32) < hazardNumerator}

	ssd := func() string { return tg.SSDs[rng.Intn(len(tg.SSDs))] }
	at := func() int64 { return minAt + rng.Int63n(maxAt-minAt) }

	if s.Hazard {
		hazards := []fault.Point{fault.MediaCorrupt, fault.WriteTorn, fault.ReadMisdirect}
		n := 1 + rng.Intn(2)
		for i := 0; i < n; i++ {
			s.Rules = append(s.Rules, fault.Rule{
				Point:  hazards[rng.Intn(len(hazards))],
				Target: ssd(),
				At:     at(),
				Nth:    uint64(1 + rng.Intn(8)),
				Count:  1 + rng.Intn(2),
			})
		}
		// Latency-only companions: pressure without error statuses.
		for len(s.Rules) < maxRules && rng.Intn(2) == 0 {
			if rng.Intn(2) == 0 {
				s.Rules = append(s.Rules, fault.Rule{
					Point: fault.SSDMediaRead, Target: ssd(), At: at(),
					Nth: uint64(1 + rng.Intn(16)), Count: 1 + rng.Intn(3),
					Duration: int64(100_000 + rng.Intn(1_900_000)), // 0.1–2 ms
				})
			} else if len(tg.Links) > 0 {
				s.Rules = append(s.Rules, fault.Rule{
					Point: fault.PCIeXfer, Target: tg.Links[rng.Intn(len(tg.Links))],
					At: at(), Nth: uint64(1 + rng.Intn(16)), Count: 1 + rng.Intn(8),
				})
			}
		}
		return s
	}

	// Benign pool: every entry recoverable under CmdTimeout+retry.
	n := 1 + rng.Intn(maxRules)
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0: // retryable media error (internal error status)
			s.Rules = append(s.Rules, fault.Rule{
				Point: fault.SSDMediaRead, Target: ssd(), At: at(),
				Nth: uint64(1 + rng.Intn(16)), Count: 1 + rng.Intn(3),
				Status: 0x06,
			})
		case 1: // media latency spike
			s.Rules = append(s.Rules, fault.Rule{
				Point: fault.SSDMediaRead, Target: ssd(), At: at(),
				Nth: uint64(1 + rng.Intn(16)), Count: 1 + rng.Intn(5),
				Duration: int64(100_000 + rng.Intn(1_900_000)), // 0.1–2 ms
			})
		case 2: // controller fetch stall
			s.Rules = append(s.Rules, fault.Rule{
				Point: fault.SSDStall, Target: ssd(), At: at(),
				Duration: int64(1_000_000 + rng.Intn(5_000_000)), // 1–6 ms
			})
		case 3: // PCIe replays
			if len(tg.Links) > 0 {
				s.Rules = append(s.Rules, fault.Rule{
					Point: fault.PCIeXfer, Target: tg.Links[rng.Intn(len(tg.Links))],
					At: at(), Nth: uint64(1 + rng.Intn(16)), Count: 1 + rng.Intn(8),
				})
			}
		case 4: // engine backend submit stall
			s.Rules = append(s.Rules, fault.Rule{
				Point: fault.BackendSubmit, Target: ssd(), At: at(),
				Duration: int64(1_000_000 + rng.Intn(5_000_000)), // 1–6 ms
			})
		}
	}
	if len(s.Rules) == 0 { // the PCIe branch can come up empty without links
		s.Rules = append(s.Rules, fault.Rule{
			Point: fault.SSDMediaRead, Target: ssd(), At: at(), Status: 0x06,
		})
	}
	return s
}

// HazardPoints returns which data-hazard points the schedule injects.
func (s *Schedule) HazardPoints() []fault.Point {
	var pts []fault.Point
	for _, r := range s.Rules {
		if r.Point.DataHazard() && !containsPoint(pts, r.Point) {
			pts = append(pts, r.Point)
		}
	}
	return pts
}

func containsPoint(pts []fault.Point, pt fault.Point) bool {
	for _, p := range pts {
		if p == pt {
			return true
		}
	}
	return false
}
