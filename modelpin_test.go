package bmstore

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"bmstore/internal/fault"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
	"bmstore/internal/trace"
)

// modelHash folds a trace dump into a fingerprint of what the *model* did,
// as opposed to how the kernel ran it. Every record except the kernel's own
// `sim fire <seq>` is hashed whole — timestamp, component, kind, both words
// and the detail string — and the hashes are summed, so the result depends
// on which records exist at which virtual instants and not on the order in
// which same-instant records were emitted (a kernel restructuring may
// legally change that order, and the count of `sim fire` records). It is a
// bufio sink: Write sees arbitrary chunks and splits them into lines.
type modelHash struct {
	sum, n uint64
	part   []byte
}

var simFire = []byte(" sim    fire ")

func (m *modelHash) Write(b []byte) (int, error) {
	m.part = append(m.part, b...)
	for {
		i := bytes.IndexByte(m.part, '\n')
		if i < 0 {
			return len(b), nil
		}
		if line := m.part[:i]; !bytes.Contains(line, simFire) {
			h := fnv.New64a()
			h.Write(line)
			m.sum += h.Sum64()
			m.n++
		}
		m.part = m.part[i+1:]
	}
}

func (m *modelHash) String() string { return fmt.Sprintf("%d:%016x", m.n, m.sum) }

// TestModelledBehaviourPinned is the timing-neutrality proof for changes to
// the kernel or to where the data path's steps are scheduled: three small
// traced rigs — a 4 KiB random mix deep enough to queue for dies, a 128 KiB
// sequential read over two SSDs (PRP lists, striped NAND reads, two-extent
// splits), and a random mix under fetch stalls, slow media, a wedged host
// adaptor, link replays and driver timeouts — must emit exactly the
// component records, at exactly the virtual nanoseconds, that they emitted
// at the commit the constants below were taken from (PR 17's, before any
// event was fused). The goldens round to a few digits; this does not.
//
// Each rig runs at three seeds. 11 is arbitrary. 125 and 132 were picked from
// a sweep of 400 rigs because they are sensitive to accidental ties, two
// unrelated events due in the same nanosecond: waiting out the SQE fetch's
// round trip and the controller's fetch latency as one event, which looks
// unobservable, moves the faulted rig at 125 and the random mix at 132 (and
// no golden, and nothing at seed 11). A restructuring that is neutral only
// "unless two things coincide" fails here.
//
// A change that only restructures events passes unblessed. A change that
// moves a constant here has moved modelled time, and needs the same written
// reason a moved golden does. Three seeds prove little about ties that one
// rig in a hundred hits: to vet a restructuring, put a few hundred seeds in
// `seeds` on a scratch copy of this tree and of its parent, run both with -v
// and diff the logged hashes (seeds beyond the pinned three are only logged).
func TestModelledBehaviourPinned(t *testing.T) {
	faults, err := fault.ParseSpec("ssd-stall,t=1ms,dur=4ms,target=MPA;media-slow,nth=40,count=-1,dur=300us;" +
		"backend-stall,t=7ms,dur=1ms,target=MPB;pcie-replay,nth=25,count=-1")
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{11, 125, 132}
	rigs := []struct {
		name   string
		faults []fault.Rule
		drv    host.DriverConfig
		spec   fio.Spec
		want   []string // records:hash for each of the pinned seeds
	}{
		{"randrw-4k-4x32", nil, host.DefaultDriverConfig(), fio.Spec{
			Name: "randrw", Pattern: fio.RandRW, BlockSize: 4096,
			IODepth: 32, NumJobs: 4, Runtime: 3 * sim.Millisecond,
		}, []string{"32417:8ca11ef8daedd3da", "32453:1bfc3f294bbef812", "32476:fb6b9024c1b2dc81"}},
		{"seqread-128k", nil, host.DefaultDriverConfig(), fio.Spec{
			Name: "seqr", Pattern: fio.SeqRead, BlockSize: 128 << 10,
			IODepth: 8, NumJobs: 2, Runtime: 3 * sim.Millisecond,
		}, []string{"4039:555d3614b98ee5a2", "4041:2bbc8d30a3cd539c", "4040:b0d65a292b0a394d"}},
		{"faulted-randrw", faults, recoveryDriverConfig(), fio.Spec{
			Name: "faulted", Pattern: fio.RandRW, BlockSize: 4096,
			IODepth: 8, NumJobs: 2, Runtime: 10 * sim.Millisecond,
		}, []string{"9971:d121d33634b2815f", "9685:d70a6484d6b5961d", "9364:eff9ddc4316b17ea"}},
	}
	for _, rig := range rigs {
		for i, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", rig.name, seed), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Seed = seed
				cfg.NumSSDs = 2
				cfg.Engine.ChunkBytes = 1 << 24
				cfg.SSD = func(i int) ssd.Config {
					s := ssd.P4510("MP" + string(rune('A'+i)))
					s.CapacityBytes = 1 << 30
					return s
				}
				var h modelHash
				tr := trace.New(trace.Options{Dump: &h})
				var drv *host.Driver
				tb := Scenario{Config: cfg, Body: func(tb *Testbed, p *sim.Proc) {
					if err := tb.Console.CreateNamespace(p, "vol", 64<<20, []int{0, 1}); err != nil {
						panic(err)
					}
					if err := tb.Console.Bind(p, "vol", 0); err != nil {
						panic(err)
					}
					var err error
					if drv, err = tb.AttachTenant(p, 0, rig.drv); err != nil {
						panic(err)
					}
					devs := make([]host.BlockDevice, rig.spec.NumJobs)
					for i := range devs {
						devs[i] = drv.BlockDev(i)
					}
					fio.Run(p, devs, rig.spec)
				}}.Run(WithTrace(tr), WithFaults(rig.faults...))
				if err := tr.Flush(); err != nil {
					t.Fatal(err)
				}
				if len(h.part) != 0 {
					t.Fatalf("dump ended mid-line: %q", h.part)
				}
				if in := tb.Env.Faults(); in != nil {
					// The faulted rig is only worth pinning if every rule fired
					// and the driver's timeout path ran.
					for _, pt := range []fault.Point{fault.SSDStall, fault.SSDMediaRead, fault.BackendSubmit, fault.PCIeXfer} {
						if in.InjectedBy(pt) == 0 {
							t.Fatalf("no %v fault fired on the faulted rig", pt)
						}
					}
					if c := drv.Counters(); c.Timeouts == 0 || c.Retries == 0 {
						t.Fatalf("no driver timeout/retry on the faulted rig: %+v", c)
					}
				}
				got := h.String()
				t.Logf("%s seed %d records:hash %s", rig.name, seed, got)
				if i < len(rig.want) && got != rig.want[i] {
					t.Errorf("component records moved: got %s, pinned %s (records:hash)", got, rig.want[i])
				}
			})
		}
	}
}
