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
				"125503:65ad8e6ca50e77b0bcd70adc9d06b9ed4b8aa6c15777ba9491e79cd09f4a3289",
				"125466:5d21abf47648d0347ce0fdb5d0db3060982f410de36df05bbe5b5d45b6fb36b8",
				"124286:c4faf6ca689463ef065cfb8d14e1e6436cea8d5dc2ba5dd282daa51012cb1cf9",
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
				"65977:82437d7548b44b847170ee33daf5fc325882a533ac3be4e308dfe14d18a2c804",
				"66194:96d59c34e0f593656d0325b72909d518c265dcc34b35a5b150f4df6853cbb7d1",
				"66150:19685d8814a04a10d80e7e2a5fbc4be420a0612c8aaecb045868b30fb3f1748e",
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
				"76707:1071504b52068109046c364a75a27ccd806f7524b9b10f484d0fd569cc25e7a4",
				"75344:dc3094e71d13fffe4cab652d55d5817a4031559b34512deb5b4c39fdf89ef213",
				"79188:30ebb29f66ffdca8c541cc83cb45802e431fb4a3c31dadb26f932b55fb672865",
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
				for _, write := range []func(io.Writer) error{set.WriteJSON, set.WriteCSV, set.WriteBreakdown, set.WriteTimeline} {
					if err := write(&out); err != nil {
						t.Fatal(err)
					}
				}
				got := fmt.Sprintf("%d:%x", out.Len(), sha256.Sum256(out.Bytes()))
				t.Logf("%s seed %d export:sha256 %s", rig.name, seed, got)
				if i < len(rig.want) && got != rig.want[i] {
					t.Errorf("observer exports moved: got %s, pinned %s (bytes:sha256)", got, rig.want[i])
				}
			})
		}
	}
}
