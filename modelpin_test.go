package bmstore

import (
	"bytes"
	"flag"
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
// `sim fire <seq>`, `sim spawn` and `sim resume` is hashed whole —
// timestamp, component, kind, both words and the detail string — and the
// hashes are summed, so the result depends on which records exist at which
// virtual instants and not on the order in which same-instant records were
// emitted (a kernel restructuring may legally change that order, and the
// count of `sim fire` records), nor on whether a step of the model ran as a
// process or as a scheduled callback (which moves the spawn and resume
// records and nothing else). It is a bufio sink: Write sees arbitrary chunks
// and splits them into lines.
type modelHash struct {
	sum, n uint64
	part   []byte
}

// kernelRecords are the `sim` records modelHash leaves out.
var kernelRecords = [][]byte{[]byte(" sim    fire "), []byte(" sim    spawn "), []byte(" sim    resume ")}

func isKernelRecord(line []byte) bool {
	for _, k := range kernelRecords {
		if bytes.Contains(line, k) {
			return true
		}
	}
	return false
}

func (m *modelHash) Write(b []byte) (int, error) {
	m.part = append(m.part, b...)
	for {
		i := bytes.IndexByte(m.part, '\n')
		if i < 0 {
			return len(b), nil
		}
		if line := m.part[:i]; !isKernelRecord(line) {
			h := fnv.New64a()
			h.Write(line)
			m.sum += h.Sum64()
			m.n++
		}
		m.part = m.part[i+1:]
	}
}

func (m *modelHash) String() string { return fmt.Sprintf("%d:%016x", m.n, m.sum) }

// modelpinSeeds widens TestModelledBehaviourPinned for `make modelpin-diff`:
// seeds 1…N run after the pinned three and are only logged.
var modelpinSeeds = flag.Int("modelpin.seeds", 0, "TestModelledBehaviourPinned: also run and log seeds 1..N")

// TestModelledBehaviourPinned is the timing-neutrality proof for changes to
// the kernel or to where the data path's steps are scheduled: five small
// traced rigs must emit exactly the component records, at exactly the
// virtual nanoseconds, that they emitted at the commit their constants were
// taken from. The goldens round to a few digits; this does not. The trace
// digests fold the same records, less `sim abort`, in emission order; this
// hash sums them, so a restructuring that only reorders same-instant records
// passes here and moves a digest, and `bmsctl trace-diff` on two dumps names
// the first record that differs. The rigs: a
// 4 KiB random mix deep enough to queue for dies, a 128 KiB sequential read
// over two SSDs (PRP lists, striped NAND reads, two-extent splits), and a
// random mix under fetch stalls, slow media, a wedged host adaptor, link
// replays and driver timeouts (constants from PR 17, before any event was
// fused); a 128 KiB sequential write (the write-side PRP walk and the SSD's
// per-segment payload fetches) and a 16 KiB random mix with payload capture
// on (PRP-list fetches interleaved with DMAs that carry bytes, as the
// application rigs' are) — constants from PR 18, before PRP-list work went
// page-at-a-time.
//
// Each rig runs at three seeds. 11 is arbitrary. 125 and 132 were picked from
// a sweep of 400 rigs because they are sensitive to accidental ties, two
// unrelated events due in the same nanosecond: waiting out the SQE fetch's
// round trip and the controller's fetch latency as one event, which looks
// unobservable, moves the faulted rig at 125 and the random mix at 132 (and
// no golden, and nothing at seed 11). A restructuring that is neutral only
// "unless two things coincide" fails here.
//
// The constants were retaken, on unchanged model code, when the `sim spawn`
// and `sim resume` records left the hash; only those records' count and sum
// moved.
//
// A change that only restructures events passes unblessed. A change that
// moves a constant here has moved modelled time, and needs the same written
// reason a moved golden does. Three seeds prove little about ties that one
// rig in a hundred hits: to vet a restructuring, run
// `make modelpin-diff REF=<parent commit> SEEDS=400`, which runs this test
// with -modelpin.seeds on this tree and on REF and diffs the logged hashes.
func TestModelledBehaviourPinned(t *testing.T) {
	faults, err := fault.ParseSpec("ssd-stall,t=1ms,dur=4ms,target=MPA;media-slow,nth=40,count=-1,dur=300us;" +
		"backend-stall,t=7ms,dur=1ms,target=MPB;pcie-replay,nth=25,count=-1")
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{11, 125, 132}
	for s := 1; s <= *modelpinSeeds; s++ {
		seeds = append(seeds, int64(s))
	}
	rigs := []struct {
		name    string
		faults  []fault.Rule
		capture bool
		drv     host.DriverConfig
		spec    fio.Spec
		want    []string // records:hash for each of the pinned seeds
	}{
		{"randrw-4k-4x32", nil, false, host.DefaultDriverConfig(), fio.Spec{
			Name: "randrw", Pattern: fio.RandRW, BlockSize: 4096,
			IODepth: 32, NumJobs: 4, Runtime: 3 * sim.Millisecond,
		}, []string{"18607:4ac9094b7a702b76", "18628:72af799aa8a73c80", "18635:1e1619c7b336f837"}},
		{"seqread-128k", nil, false, host.DefaultDriverConfig(), fio.Spec{
			Name: "seqr", Pattern: fio.SeqRead, BlockSize: 128 << 10,
			IODepth: 8, NumJobs: 2, Runtime: 3 * sim.Millisecond,
		}, []string{"3359:217fe614a0117b81", "3359:fbc8e765ebeebb16", "3359:c4cd5df831b92477"}},
		{"faulted-randrw", faults, false, recoveryDriverConfig(), fio.Spec{
			Name: "faulted", Pattern: fio.RandRW, BlockSize: 4096,
			IODepth: 8, NumJobs: 2, Runtime: 10 * sim.Millisecond,
		}, []string{"7286:2cf755443ca5bb16", "7079:a95d765f67f165e2", "6824:0e03332263b561fa"}},
		{"seqwrite-128k", nil, false, host.DefaultDriverConfig(), fio.Spec{
			Name: "seqw", Pattern: fio.SeqWrite, BlockSize: 128 << 10,
			IODepth: 8, NumJobs: 2, Runtime: 3 * sim.Millisecond,
		}, []string{"1839:432d93b7828fedf8", "1839:369917f652339ec6", "1839:06b942ad715d0365"}},
		{"capture-randrw-16k", nil, true, host.DefaultDriverConfig(), fio.Spec{
			Name: "capture", Pattern: fio.RandRW, BlockSize: 16 << 10,
			IODepth: 8, NumJobs: 2, Runtime: 3 * sim.Millisecond,
		}, []string{"6765:d6609947d0989fb0", "6915:b994c97645ca3268", "6895:dc65bf27ff3eac31"}},
	}
	for _, rig := range rigs {
		for i, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", rig.name, seed), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Seed = seed
				cfg.NumSSDs = 2
				cfg.CaptureData = rig.capture
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
