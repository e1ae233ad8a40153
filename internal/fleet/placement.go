package fleet

import (
	"fmt"

	"bmstore/internal/fio"
)

// Tenant is one placed bare-metal tenant: a workload pattern driven by Jobs
// concurrent QD1 issuers against the tenant's own namespace and PCIe
// function. The struct is part of the fleet report, so fields are stable
// and serialisable.
type Tenant struct {
	ID      int    // index on the host; also the PCIe function it binds
	Pattern string // randread | randwrite | randrw
	Jobs    int    // concurrent issuers
}

// pattern maps the serialised name back to the fio pattern.
func (t Tenant) pattern() fio.Pattern {
	switch t.Pattern {
	case "randwrite":
		return fio.RandWrite
	case "randrw":
		return fio.RandRW
	default:
		return fio.RandRead
	}
}

// splitmix64 is the placement PRNG: a tiny, portable, versioned mixer (the
// same construction the chaos scheduler uses) so a placement is a pure
// function of (placement seed, host index) — independent of Go version,
// math/rand internals, and crucially of every *other* host, which is what
// lets `bmsctl fleet-run -host K` replay one host bit-identically outside the fleet.
type splitmix64 struct{ x uint64 }

func (s *splitmix64) next() uint64 {
	s.x += 0x9E3779B97F4A7C15
	z := s.x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// placePatterns is the tenant workload mix placements draw from. Read-heavy
// on purpose: two read slots per write slot, like the paper's mixed-tenant
// experiments.
var placePatterns = []string{"randread", "randwrite", "randread", "randrw"}

// Place computes the seeded tenant placement of one host: between 1 and
// maxTenants tenants, each with a pattern and job count drawn from the
// host's own derived PRNG stream.
func Place(placementSeed int64, host, maxTenants int) []Tenant {
	if maxTenants < 1 {
		maxTenants = 1
	}
	rng := &splitmix64{x: uint64(placementSeed)*0x9E3779B97F4A7C15 ^ (uint64(host)+1)*0xD1B54A32D192ED03}
	n := 1 + rng.intn(maxTenants)
	out := make([]Tenant, n)
	for i := range out {
		out[i] = Tenant{
			ID:      i,
			Pattern: placePatterns[rng.intn(len(placePatterns))],
			Jobs:    1 + rng.intn(2),
		}
	}
	return out
}

// String renders the placement compactly for the report, e.g.
// "randread x2 + randrw x1".
func placementString(ts []Tenant) string {
	s := ""
	for i, t := range ts {
		if i > 0 {
			s += " + "
		}
		s += fmt.Sprintf("%s x%d", t.Pattern, t.Jobs)
	}
	return s
}
