package bmstore

import (
	"bytes"
	"crypto/sha256"
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
// The hash leaves out the kernel's own process counters (`sim`
// procs_spawned and proc_resumes), as TestModelledBehaviourPinned leaves out
// the `sim spawn` and `sim resume` records: they count how the kernel ran the
// model — as processes or as scheduled callbacks — not what the model did.
// They are pinned beside the hash instead, as numbers, so a change that
// starts one process more fails here and says by how many. The constants were
// retaken when the block layer's split, which no kernel profile enabled, was
// deleted: only the driver's `block_splits` counter rows, always 0, left the
// exports; when the admin queue's fetch stopped running as a process:
// `events_fired` lost the process's unwaited `Done` event per admin fetch
// burst; and when the process counters left the hash for the pinned numbers.
//
// It uses only API both sides of that change have, because
// scripts/modelpin_diff.sh copies this file over the reference tree; like the
// model pin it also runs and logs seeds 1..-modelpin.seeds.
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
		want   []string    // export:sha256 for each of the pinned seeds
		procs  [][2]uint64 // procs_spawned, proc_resumes for each of the pinned seeds
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
				"125091:393a70135212addd1b643c5e120d513734613ffa448d807261a7a2a06825dcd1",
				"125054:7f453be931be124a8e6fce72573923d2ab39e210b9ce76245a36b914713c1bab",
				"123874:9cb7c7ae4678b095bbaf36e1d97da9c94000cbf6168f81167ba478afef7a79bc",
			}, [][2]uint64{{40, 133}, {40, 133}, {40, 133}}},
		{"split-faulted", false, faults,
			func(tb *Testbed, p *sim.Proc) { split(tb, p, recoveryDriverConfig()) },
			func(agg *obs.SpanAgg) error {
				if agg.Errored == 0 {
					return fmt.Errorf("no span closed on the error path")
				}
				return nil
			},
			[]string{
				"65541:4964032e33c5d3dcac605d95502df4dab746f1efb3d98fc5ba087fc72554c44a",
				"65762:1540cae65834391c874bd8a6bf9f52747fba07551393711ca44ff3f39bd0dd3e",
				"65716:ed50231e3aa66d3d1023d46797f97cf9743795756dfa33374fb6cff60dfb10cc",
			}, [][2]uint64{{56, 181}, {56, 180}, {56, 180}}},
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
				"76111:f97a7fcaf6df3df7888d640b4f8b11ab0e8c47ce1d226de1e251c0a583bb489b",
				"74748:dc30c97488d4db6bc7d2ed18d8c0e6bc3e8e77b89e8cf8ee45d59afe1a40b5f7",
				"78592:44c66e74b7bf2134edcfa9077c0add8bbc19fe4807128adfc53ebbbb659f7638",
			}, [][2]uint64{{27, 88}, {27, 88}, {27, 88}}},
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
				snap, procs := withoutProcessCounters(set.Snapshot())
				for _, write := range []func(io.Writer) error{snap.WriteJSON, snap.WriteCSV, set.WriteBreakdown, set.WriteTimeline} {
					if err := write(&out); err != nil {
						t.Fatal(err)
					}
				}
				got := fmt.Sprintf("%d:%x", out.Len(), sha256.Sum256(out.Bytes()))
				t.Logf("%s seed %d export:sha256 %s", rig.name, seed, got)
				if i < len(rig.want) && got != rig.want[i] {
					t.Errorf("observer exports moved: got %s, pinned %s (bytes:sha256)", got, rig.want[i])
				}
				t.Logf("%s seed %d kernel: %d processes spawned, %d resumes", rig.name, seed, procs[0], procs[1])
				if i < len(rig.procs) && procs != rig.procs[i] {
					t.Errorf("the kernel ran the rig with %d processes and %d resumes, pinned %d and %d",
						procs[0], procs[1], rig.procs[i][0], rig.procs[i][1])
				}
			})
		}
	}
}

// withoutProcessCounters drops the `sim` component's process counters from
// every rig of snap, and returns their sums: procs_spawned, proc_resumes.
// Everything else, events_fired included, stays.
func withoutProcessCounters(snap obs.MultiSnapshot) (obs.MultiSnapshot, [2]uint64) {
	var procs [2]uint64
	for r := range snap.Rigs {
		for c := range snap.Rigs[r].Components {
			comp := &snap.Rigs[r].Components[c]
			if comp.Name != "sim" {
				continue
			}
			kept := comp.Counters[:0:0]
			for _, ctr := range comp.Counters {
				switch ctr.Name {
				case "procs_spawned":
					procs[0] += ctr.Value
				case "proc_resumes":
					procs[1] += ctr.Value
				default:
					kept = append(kept, ctr)
				}
			}
			comp.Counters = kept
		}
	}
	return snap, procs
}
