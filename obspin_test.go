package bmstore

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"testing"

	"bmstore/internal/fault"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/obs"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
)

// TestObserverExportsPinned is TestModelledBehaviourPinned's counterpart for
// the passive observers: what the metrics registry, the span breakdown and
// the sampled timelines *export* for a rig must be byte for byte what they
// exported at the commit the constants were taken from (the parent of PR 23,
// before spans and timelines became one record). The hash covers the
// concatenation of a one-rig obs.Set's WriteJSON, WriteCSV, WriteBreakdown
// and WriteTimeline. The rigs are the span paths a restructuring is most
// likely to bend:
//
//   - split: 128 KiB sequential reads and writes over a namespace striped
//     across two SSDs in 64 KiB chunks, so every command becomes sub-commands
//     on different SSDs (several device aliases per span), with sampling and
//     worst-K both on (a slow sampled request is kept twice);
//   - split-faulted: the same under a controller stall, slow media and a
//     command timeout with retries, so spans close on the error path while
//     the engine and the SSD still hold the command;
//   - direct-shared-fn: two drivers on function 0 of a direct rig, whose span
//     keys collide.
//
// The exports include the kernel's own process counters (`sim`
// procs_spawned and proc_resumes), which count how the kernel ran the model —
// as processes or as scheduled callbacks — not what the model did; the
// constants were retaken when the I/O path stopped running as processes, and
// only those two counters moved then. They were retaken again when the
// block layer's split, which no kernel profile enabled, was deleted: only
// the driver's `block_splits` counter rows, always 0, left the exports. They
// were retaken once more when the admin queue's fetch stopped running as a
// process: only the two process counters and `events_fired` moved, which
// lost the process's unwaited `Done` event per admin fetch burst.
//
// It uses only API both sides of that change have, because
// scripts/modelpin_diff.sh copies this file over the reference tree; like the
// model pin it also runs and logs seeds 1..-modelpin.seeds. The script passes
// -obspin.noprocs, which leaves the two process counters out of the logged
// hash, as TestModelledBehaviourPinned always leaves out the `sim spawn` and
// `sim resume` records, and checks no constant.
func TestObserverExportsPinned(t *testing.T) {
	faults, err := fault.ParseSpec("ssd-stall,t=1ms,dur=4ms,target=MPA;media-slow,nth=40,count=-1,dur=300us")
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{11, 125, 132}
	for s := 1; s <= *modelpinSeeds; s++ {
		seeds = append(seeds, int64(s))
	}
	split := func(tb *Testbed, p *sim.Proc, dcfg host.DriverConfig) {
		if err := tb.Console.CreateNamespace(p, "vol", 4<<20, []int{0, 1}); err != nil {
			panic(err)
		}
		if err := tb.Console.Bind(p, "vol", 0); err != nil {
			panic(err)
		}
		drv, err := tb.AttachTenant(p, 0, dcfg)
		if err != nil {
			panic(err)
		}
		seq := func(name string, pt fio.Pattern) fio.Spec {
			return fio.Spec{Name: name, Pattern: pt, BlockSize: 128 << 10, IODepth: 4, NumJobs: 1, Runtime: 8 * sim.Millisecond}
		}
		writer := tb.Go("seqw", func(p *sim.Proc) {
			fio.Run(p, []host.BlockDevice{drv.BlockDev(1)}, seq("seqw", fio.SeqWrite))
		})
		fio.Run(p, []host.BlockDevice{drv.BlockDev(0)}, seq("seqr", fio.SeqRead))
		p.Wait(writer.Done())
	}
	rigs := []struct {
		name   string
		direct bool
		faults []fault.Rule
		body   func(tb *Testbed, p *sim.Proc)
		check  func(agg *obs.SpanAgg) error
		want   []string // export:sha256 for each of the pinned seeds
	}{
		{"split", false, nil,
			func(tb *Testbed, p *sim.Proc) { split(tb, p, host.DefaultDriverConfig()) },
			func(agg *obs.SpanAgg) error {
				if agg.Media[0].N() == 0 || agg.Media[1].N() == 0 || agg.Errored != 0 {
					return fmt.Errorf("want media time on reads and writes and no errors: %d/%d, %d errored", agg.Media[0].N(), agg.Media[1].N(), agg.Errored)
				}
				return nil
			},
			[]string{
				"125361:2df41d6bb1e4cdc18c918540cd9375256c5d34c0df1959b840c0b422ca24138d",
				"125324:a0944e2bfdfb908f8a51f39ccf381d3ff4937819929088ff1dc745a987c8b4b0",
				"124144:802d2177e8266917475e3e167b3fd161006aced1934593fc7b956129e0fa0851",
			}},
		{"split-faulted", false, faults,
			func(tb *Testbed, p *sim.Proc) { split(tb, p, recoveryDriverConfig()) },
			func(agg *obs.SpanAgg) error {
				if agg.Errored == 0 {
					return fmt.Errorf("no span closed on the error path")
				}
				return nil
			},
			[]string{
				"65827:5eba5369fc7d1aa541bc5712f4a2897603847b7391edda688c1097855a15251d",
				"66048:6c0c5d267b00673122f03738a6655d7f26faf15e9c4e49ea915e03bce19f6840",
				"66002:9e287e3c0cbe68504f1b426bc69fefe39bdb61ed0492fd5db2790f41fa231511",
			}},
		{"direct-shared-fn", true, nil,
			func(tb *Testbed, p *sim.Proc) {
				var devs []host.BlockDevice
				for i := 0; i < 2; i++ {
					drv, err := tb.AttachNative(p, i, host.DefaultDriverConfig())
					if err != nil {
						panic(err)
					}
					devs = append(devs, drv.BlockDev(0))
				}
				fio.Run(p, devs, fio.Spec{Name: "randrw", Pattern: fio.RandRW, BlockSize: 4096, IODepth: 8, NumJobs: 2, Runtime: 2 * sim.Millisecond})
			},
			func(agg *obs.SpanAgg) error {
				if agg.Collisions == 0 {
					return fmt.Errorf("no span key collided")
				}
				return nil
			},
			[]string{
				"76401:a4c3637d1bf8a9c452571ae6a98e5eab9856c5fb8cea6697b2bfe3fd7c959105",
				"75038:d36970f544084e5eb810382bc0e56640b1caa90ba854320e602ac4c5d0117b6e",
				"78882:d70c8a9afb9f1c34dcfa12d05b67d032c77c0f285ba832cfc9b724596e7aee86",
			}},
	}
	for _, rig := range rigs {
		for i, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", rig.name, seed), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Seed = seed
				cfg.NumSSDs = 2
				cfg.Engine.ChunkBytes = 64 << 10
				cfg.SSD = func(i int) ssd.Config {
					s := ssd.P4510("MP" + string(rune('A'+i)))
					s.CapacityBytes = 1 << 30
					return s
				}
				set := obs.NewSet(obs.Options{
					SeriesInterval: obs.DefaultSeriesInterval,
					Timeline:       timeline.Config{SampleEvery: 4, WorstK: 8},
				})
				Scenario{Config: cfg, Direct: rig.direct, Body: rig.body}.Run(
					WithMetrics(set.Registry(rig.name)), WithFaults(rig.faults...))
				if err := rig.check(set.Aggregate()); err != nil {
					t.Fatalf("the rig does not exercise what it is pinned for: %v", err)
				}
				var out bytes.Buffer
				writeJSON, writeCSV := set.WriteJSON, set.WriteCSV
				if *obspinNoProcs {
					snap := withoutProcessCounters(set.Snapshot())
					writeJSON, writeCSV = snap.WriteJSON, snap.WriteCSV
				}
				for _, write := range []func(io.Writer) error{writeJSON, writeCSV, set.WriteBreakdown, set.WriteTimeline} {
					if err := write(&out); err != nil {
						t.Fatal(err)
					}
				}
				got := fmt.Sprintf("%d:%x", out.Len(), sha256.Sum256(out.Bytes()))
				t.Logf("%s seed %d export:sha256 %s", rig.name, seed, got)
				if !*obspinNoProcs && i < len(rig.want) && got != rig.want[i] {
					t.Errorf("observer exports moved: got %s, pinned %s (bytes:sha256)", got, rig.want[i])
				}
			})
		}
	}
}

// obspinNoProcs narrows TestObserverExportsPinned's logged hash for `make
// modelpin-diff`, whose two sides may run the same model as processes on one
// and as callbacks on the other.
var obspinNoProcs = flag.Bool("obspin.noprocs", false, "TestObserverExportsPinned: leave the sim process counters out of the logged hash; check no constant")

// withoutProcessCounters drops the `sim` component's process counters from
// every rig of snap; everything else, events_fired included, stays.
func withoutProcessCounters(snap obs.MultiSnapshot) obs.MultiSnapshot {
	for r := range snap.Rigs {
		for c := range snap.Rigs[r].Components {
			comp := &snap.Rigs[r].Components[c]
			if comp.Name != "sim" {
				continue
			}
			kept := comp.Counters[:0:0]
			for _, ctr := range comp.Counters {
				if ctr.Name != "procs_spawned" && ctr.Name != "proc_resumes" {
					kept = append(kept, ctr)
				}
			}
			comp.Counters = kept
		}
	}
	return snap
}
