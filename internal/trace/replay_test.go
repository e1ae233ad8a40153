// Replay checks: the determinism harness behind the CI gate. Every
// representative testbed is executed twice with the same seed and must
// produce bit-identical trace digests; re-seeding the same scenario must
// move the digest. The tests live in an external test package so they can
// drive the full public rig (bmstore imports trace, not the other way
// round).
package trace_test

import (
	"bytes"
	"io"
	"testing"

	"bmstore"
	"bmstore/internal/experiments"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
	"bmstore/internal/trace"
)

// smallCfg mirrors the root package's test rig: tiny disks and chunks so
// scenarios finish in milliseconds of wall time.
func smallCfg(seed int64, numSSDs int) bmstore.Config {
	cfg := bmstore.DefaultConfig()
	cfg.Seed = seed
	cfg.NumSSDs = numSSDs
	cfg.Engine.ChunkBytes = 1 << 24
	cfg.SSD = func(i int) ssd.Config {
		c := ssd.P4510("TB" + string(rune('A'+i)))
		c.CapacityBytes = 1 << 30
		return c
	}
	return cfg
}

func mustCheck(t *testing.T, s bmstore.Scenario) string {
	t.Helper()
	first, second, ok := bmstore.DeterminismCheck(s)
	if !ok {
		t.Fatalf("same seed, diverging digests:\n  run 1: %s\n  run 2: %s", first, second)
	}
	if first == "" {
		t.Fatal("empty digest")
	}
	return first
}

// fioBody provisions a namespace across every SSD, binds it, and runs a
// short mixed workload through the standard tenant driver.
func fioBody(seed int64, numSSDs int) bmstore.Scenario {
	stripe := make([]int, numSSDs)
	for i := range stripe {
		stripe[i] = i
	}
	return bmstore.Scenario{
		Config: smallCfg(seed, numSSDs),
		Body: func(tb *bmstore.Testbed, p *sim.Proc) {
			if err := tb.Console.CreateNamespace(p, "vol0", 64<<20, stripe); err != nil {
				panic(err)
			}
			if err := tb.Console.Bind(p, "vol0", 1); err != nil {
				panic(err)
			}
			drv, err := tb.AttachTenant(p, 1, host.DefaultDriverConfig())
			if err != nil {
				panic(err)
			}
			fio.Run(p, []host.BlockDevice{drv.BlockDev(0), drv.BlockDev(1)}, fio.Spec{
				Name: "det", Pattern: fio.RandRW, BlockSize: 4096,
				IODepth: 8, NumJobs: 2, Runtime: 5 * sim.Millisecond,
			})
		},
	}
}

func TestDeterminismBMStoreRig(t *testing.T) {
	d := mustCheck(t, fioBody(42, 2))
	t.Logf("bmstore rig digest: %s", d)
}

// directBody runs a read workload on the direct-attached (no BM-Store) rig.
func directBody(seed int64) bmstore.Scenario {
	return bmstore.Scenario{
		Config: smallCfg(seed, 1),
		Direct: true,
		Body: func(tb *bmstore.Testbed, p *sim.Proc) {
			drv, err := tb.AttachNative(p, 0, host.DefaultDriverConfig())
			if err != nil {
				panic(err)
			}
			fio.Run(p, []host.BlockDevice{drv.BlockDev(0), drv.BlockDev(1)}, fio.Spec{
				Name: "det", Pattern: fio.RandRead, BlockSize: 4096,
				IODepth: 16, NumJobs: 2, Runtime: 5 * sim.Millisecond,
			})
		},
	}
}

func TestDeterminismDirectRig(t *testing.T) {
	t.Logf("direct rig digest: %s", mustCheck(t, directBody(42)))
}

// hotUpgradeBody exercises the firmware hot-upgrade path under tenant I/O.
func hotUpgradeBody() bmstore.Scenario {
	return bmstore.Scenario{
		Config: smallCfg(7, 1),
		Body: func(tb *bmstore.Testbed, p *sim.Proc) {
			if err := tb.Console.CreateNamespace(p, "vol", 32<<20, []int{0}); err != nil {
				panic(err)
			}
			if err := tb.Console.Bind(p, "vol", 0); err != nil {
				panic(err)
			}
			drv, err := tb.AttachTenant(p, 0, host.DefaultDriverConfig())
			if err != nil {
				panic(err)
			}
			// Tenant I/O keeps flowing across the firmware activation.
			stop := tb.Env.NewEvent()
			tb.Go("tenant", func(tp *sim.Proc) {
				bd := drv.BlockDev(0)
				for i := 0; !stop.Processed(); i++ {
					if err := bd.ReadAt(tp, uint64(i%512), 1, nil); err != nil {
						panic(err)
					}
				}
			})
			p.Sleep(10 * sim.Millisecond)
			if _, err := tb.Console.HotUpgrade(p, 0, "VDV10200", 128); err != nil {
				panic(err)
			}
			p.Sleep(10 * sim.Millisecond)
			stop.Trigger(nil)
		},
	}
}

func TestDeterminismHotUpgrade(t *testing.T) {
	t.Logf("hot-upgrade digest: %s", mustCheck(t, hotUpgradeBody()))
}

// hotPlugBody exercises the drive-replacement path around live data.
func hotPlugBody() bmstore.Scenario {
	return bmstore.Scenario{
		Config: smallCfg(11, 2),
		Body: func(tb *bmstore.Testbed, p *sim.Proc) {
			if err := tb.Console.CreateNamespace(p, "vol", 32<<20, []int{1}); err != nil {
				panic(err)
			}
			if err := tb.Console.Bind(p, "vol", 0); err != nil {
				panic(err)
			}
			drv, err := tb.AttachTenant(p, 0, host.DefaultDriverConfig())
			if err != nil {
				panic(err)
			}
			bd := drv.BlockDev(0)
			if err := bd.WriteAt(p, 0, 1, nil); err != nil {
				panic(err)
			}
			if err := tb.Console.HotPlugPrepare(p, 1); err != nil {
				panic(err)
			}
			newDev, link := tb.NewSSD(ssd.P4510("REPLACEMENT"))
			if err := tb.Controller.PhysicalSwap(p, 1, newDev, link); err != nil {
				panic(err)
			}
			if err := tb.Console.HotPlugComplete(p, 1); err != nil {
				panic(err)
			}
			if err := bd.ReadAt(p, 0, 1, nil); err != nil {
				panic(err)
			}
		},
	}
}

func TestDeterminismHotPlug(t *testing.T) {
	t.Logf("hot-plug digest: %s", mustCheck(t, hotPlugBody()))
}

// qosBody runs two capped tenants so the QoS park/dispatch path is covered.
func qosBody() bmstore.Scenario {
	return bmstore.Scenario{
		Config: smallCfg(23, 2),
		Body: func(tb *bmstore.Testbed, p *sim.Proc) {
			for i, name := range []string{"tenA", "tenB"} {
				if err := tb.Console.CreateNamespace(p, name, 32<<20, []int{i}); err != nil {
					panic(err)
				}
				if err := tb.Console.Bind(p, name, uint8(i)); err != nil {
					panic(err)
				}
			}
			// Cap tenant B: its over-threshold commands park in the QoS
			// buffer, a path the digest must also cover.
			if err := tb.Console.SetQoS(p, "tenB", 5000, 16<<20); err != nil {
				panic(err)
			}
			var drvs [2]*host.Driver
			for i := range drvs {
				d, err := tb.AttachTenant(p, pcie.FuncID(i), host.DefaultDriverConfig())
				if err != nil {
					panic(err)
				}
				drvs[i] = d
			}
			done := make([]*sim.Event, 0, 2)
			for i := range drvs {
				drv := drvs[i]
				proc := tb.Go("tenant", func(tp *sim.Proc) {
					fio.Run(tp, []host.BlockDevice{drv.BlockDev(0)}, fio.Spec{
						Name: "qos", Pattern: fio.RandRead, BlockSize: 4096,
						IODepth: 16, NumJobs: 1, Runtime: 5 * sim.Millisecond,
					})
				})
				done = append(done, proc.Done())
			}
			for _, ev := range done {
				p.Wait(ev)
			}
		},
	}
}

func TestDeterminismMultiTenantQoS(t *testing.T) {
	t.Logf("multi-tenant QoS digest: %s", mustCheck(t, qosBody()))
}

// Different seeds must visibly diverge: the digest is only a determinism
// witness if it actually moves when behaviour does.
func TestDeterminismSeedDivergence(t *testing.T) {
	d1, _ := fioBody(1, 2).TraceDigest()
	d2, _ := fioBody(2, 2).TraceDigest()
	if d1 == d2 {
		t.Fatalf("seeds 1 and 2 produced the same digest %s", d1)
	}

	direct := func(seed int64) string {
		s := bmstore.Scenario{
			Config: smallCfg(seed, 1),
			Direct: true,
			Body: func(tb *bmstore.Testbed, p *sim.Proc) {
				drv, err := tb.AttachNative(p, 0, host.DefaultDriverConfig())
				if err != nil {
					panic(err)
				}
				fio.Run(p, []host.BlockDevice{drv.BlockDev(0)}, fio.Spec{
					Name: "det", Pattern: fio.RandWrite, BlockSize: 4096,
					IODepth: 4, NumJobs: 1, Runtime: 2 * sim.Millisecond,
				})
			},
		}
		d, _ := s.TraceDigest()
		return d
	}
	if direct(1) == direct(2) {
		t.Fatal("direct rig digests did not diverge across seeds")
	}
}

// tinyScale keeps the serial-vs-parallel sweep below a second of wall time:
// the point is equivalence, not statistics.
func tinyScale() experiments.Scale {
	return experiments.Scale{
		Name:        "tiny",
		FioRand:     2 * sim.Millisecond,
		FioSeq:      10 * sim.Millisecond,
		FioRampSeq:  2 * sim.Millisecond,
		AppLoadCut:  8,
		AppDuration: 20 * sim.Millisecond,
		VMScaleQD:   8,
		VMScaleJobs: 1,
		FWCommitMin: 100 * sim.Millisecond,
		FWCommitMax: 150 * sim.Millisecond,
	}
}

// sweep runs a representative subset of the evaluation at the given
// parallelism and returns the rendered tables, the fidelity JSON export,
// the number of traced rigs and the combined trace digest.
func sweep(parallel int) (string, string, int, string) {
	set := trace.NewSet(trace.Options{})
	h := experiments.NewHarness(tinyScale(), parallel, set)
	// fig13a rides along to pin the app stack (minidb checkpoints once
	// issued page I/O in map-iteration order — caught exactly here).
	pick := map[string]bool{"fig1": true, "fig12": true, "fig13a": true, "abl-zerocopy": true, "abl-qos": true}
	var buf bytes.Buffer
	rset := &experiments.ResultSet{Scale: "tiny"}
	for _, e := range experiments.All() {
		if pick[e.ID] {
			tab := e.Run(h)
			tab.Render(&buf)
			rset.Results = append(rset.Results, tab.Result())
		}
	}
	var jsonBuf bytes.Buffer
	if err := rset.WriteJSON(&jsonBuf); err != nil {
		panic(err)
	}
	return buf.String(), jsonBuf.String(), set.Rigs(), set.Digest()
}

// TestSerialParallelEquivalence is the tentpole's contract: fanning rigs out
// on a worker pool must not change a single byte of output. Tables must be
// byte-identical, and the combined digest — every rig's name, digest and
// event count folded in sorted-name order, independent of completion order —
// must match.
func TestSerialParallelEquivalence(t *testing.T) {
	serialTabs, serialJSON, serialRigs, serialDigest := sweep(1)
	parTabs, parJSON, parRigs, parDigest := sweep(4)

	if serialTabs != parTabs {
		t.Errorf("rendered tables differ between -parallel 1 and -parallel 4:\n--- serial ---\n%s\n--- parallel ---\n%s", serialTabs, parTabs)
	}
	// The fidelity export rides on the same guarantee: the -json bytes the
	// figures gate consumes must be identical at any worker count.
	if serialJSON != parJSON {
		t.Errorf("fidelity JSON export differs between -parallel 1 and -parallel 4:\n--- serial ---\n%s\n--- parallel ---\n%s", serialJSON, parJSON)
	}
	if serialRigs == 0 {
		t.Fatal("sweep produced no traced rigs")
	}
	if serialRigs != parRigs {
		t.Fatalf("rig count differs: serial %d, parallel %d", serialRigs, parRigs)
	}
	if serialDigest != parDigest {
		t.Errorf("combined digest diverged: serial %s, parallel %s", serialDigest, parDigest)
	}
	t.Logf("%d rigs, combined digest %s", serialRigs, serialDigest)
}

// TestSetDigestOrderIndependence: a Set's combined digest is a function of
// (name, per-rig digest) pairs only — the order rigs were created or
// executed in must not matter. This is what makes the parallel digest
// meaningful.
func TestSetDigestOrderIndependence(t *testing.T) {
	run := func(names []string) string {
		set := trace.NewSet(trace.Options{})
		for _, n := range names {
			tr, k := set.Tracer(n), trace.NewKey(n, "op")
			// Each rig's content depends only on its name, not creation order.
			for i := 0; i < len(n); i++ {
				tr.Emit(sim.Time(i), k, uint64(i), 0, "")
			}
		}
		return set.Digest()
	}
	a := run([]string{"rig/a", "rig/b", "rig/c"})
	b := run([]string{"rig/c", "rig/a", "rig/b"})
	if a != b {
		t.Fatalf("set digest depends on rig creation order: %s vs %s", a, b)
	}
}

// dumpSweep runs two experiments of the representative subset with every
// rig dumping into a Set and returns the Set's flushed dump.
func dumpSweep(t *testing.T, parallel int) []byte {
	set := trace.NewSet(trace.Options{Dump: io.Discard})
	h := experiments.NewHarness(tinyScale(), parallel, set)
	for _, e := range experiments.All() {
		if e.ID == "fig12" || e.ID == "abl-qos" {
			e.Run(h)
		}
	}
	var out bytes.Buffer
	if err := set.Flush(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestSetDumpSerialParallelEquivalence: each rig of a Set dumps into its own
// file as it runs, and Flush concatenates the files in sorted-name order, so
// the flushed dump is byte-identical whether the rigs ran one after another
// or four at a time.
func TestSetDumpSerialParallelEquivalence(t *testing.T) {
	serial, par := dumpSweep(t, 1), dumpSweep(t, 4)
	if rigs := bytes.Count(serial, []byte("\n=== rig ")); rigs < 2 {
		t.Fatalf("the serial dump holds %d rig headers after the first; want several rigs", rigs)
	}
	if !bytes.Equal(serial, par) {
		t.Fatalf("flushed dumps differ: serial %d bytes, parallel %d bytes", len(serial), len(par))
	}
	t.Logf("%d rigs, %d bytes", bytes.Count(serial, []byte("=== rig ")), len(serial))
}
