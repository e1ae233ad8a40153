package bmstore

import (
	"bytes"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"bmstore/internal/fault"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/obs"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/sim"
	"bmstore/internal/trace"
)

// dataPathOutcome is what one run of the mixed workload leaves behind: the
// fio aggregates of a random and a large-block sequential job and the rig's
// final virtual clock.
type dataPathOutcome struct {
	rand, seq *fio.Result
	end       sim.Time
}

// runDataPath drives a two-SSD rig through a mixed random workload, a
// 128 KiB sequential one (PRP-list walk, multi-extent splitting) and a
// payload round trip. CaptureData is on, so the data path's pooled staging
// buffers and PRP segment caches carry real payload bytes — a stale pooled
// buffer corrupts the round trip, which fails the test.
func runDataPath(t *testing.T, opts ...Option) (out dataPathOutcome) {
	t.Helper()
	tb := smallTestbed(t, 2, opts...)
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	tb.Run(func(p *sim.Proc) {
		must(tb.Console.CreateNamespace(p, "vol", 64<<20, []int{0, 1}))
		must(tb.Console.Bind(p, "vol", 0))
		drv, err := tb.AttachTenant(p, 0, host.DefaultDriverConfig())
		must(err)
		devs := []host.BlockDevice{drv.BlockDev(0), drv.BlockDev(1)}
		out.rand = fio.Run(p, devs, fio.Spec{
			Name: "randrw", Pattern: fio.RandRW, BlockSize: 4096,
			IODepth: 16, NumJobs: 2, Runtime: 4 * sim.Millisecond,
		})
		out.seq = fio.Run(p, devs, fio.Spec{
			Name: "seq", Pattern: fio.SeqWrite, BlockSize: 128 << 10,
			IODepth: 8, NumJobs: 2, Runtime: 4 * sim.Millisecond,
		})
		// Payload round trip after thousands of pooled-buffer reuses: write a
		// recognisable pattern, flush, read it back.
		bd := devs[0]
		data := make([]byte, 64<<10)
		for i := range data {
			data[i] = byte(i * 7)
		}
		must(bd.WriteAt(p, 900, 16, data))
		must(bd.Flush(p))
		got := make([]byte, len(data))
		must(bd.ReadAt(p, 900, 16, got))
		if !bytes.Equal(got, data) {
			panic("payload round trip corrupted the data")
		}
		out.end = p.Now()
	})
	return out
}

// TestTelemetryIsTimingNeutral pins the always-on telemetry boundary: a
// metrics registry — sampled timelines and worst-K forensics included — is a
// passive observer, so attaching one must not move the virtual clock or any
// fio aggregate (full latency histograms included) of the bare run. A
// divergence means an observation point schedules or reorders events.
func TestTelemetryIsTimingNeutral(t *testing.T) {
	met := obs.New(obs.Options{
		SeriesInterval: obs.DefaultSeriesInterval,
		Timeline:       timeline.Config{SampleEvery: 8, WorstK: 8},
	})
	bare := runDataPath(t)
	observed := runDataPath(t, WithMetrics(met))
	if bare.end != observed.end {
		t.Fatalf("virtual end time diverged: bare %d, with telemetry %d", bare.end, observed.end)
	}
	if !reflect.DeepEqual(bare.rand, observed.rand) {
		t.Errorf("rand-rw fio results diverged: bare lat %.2fus, with telemetry %.2fus",
			bare.rand.AvgLatencyUS(), observed.rand.AvgLatencyUS())
	}
	if !reflect.DeepEqual(bare.seq, observed.seq) {
		t.Errorf("seq fio results diverged: bare lat %.2fus, with telemetry %.2fus",
			bare.seq.AvgLatencyUS(), observed.seq.AvgLatencyUS())
	}
	var buf bytes.Buffer
	if err := timeline.WriteTrace(&buf, []timeline.RigDump{met.Timeline().Dump("ab")}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"bmstore_rig"`)) {
		t.Error("trace export looks empty; the recorder never saw the workload")
	}
}

// TestRegistryKeepsCountsNotTheRig: an obs.Set keeps each rig's registry
// until it exports, after the rig is gone, so a registry must hold the counts
// it reads at export and not the components that keep them. Once the rig is
// dropped, the registry alone may keep no more than its own instruments.
func TestRegistryKeepsCountsNotTheRig(t *testing.T) {
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	met := obs.NewRegistry()
	runDataPath(t, WithMetrics(met))
	if met.Component("sim").Counter("events_fired").Value() == 0 {
		t.Fatal("the registry read no kernel events")
	}
	held := liveHeap()
	runtime.KeepAlive(met)
	kept := held - liveHeap()
	t.Logf("the registry alone keeps %d KiB", kept>>10)
	const bound = 1 << 20
	if kept > bound {
		t.Errorf("the registry keeps %d KiB after its rig is gone, bound %d KiB: a counter's read holds a component", kept>>10, bound>>10)
	}
}

// TestMediaErrorReachesTheTenant: a media-error rule aimed at one backend's
// serial fires once, on that drive only, leaves a `fault media` record under
// its serial and reaches the tenant behind the BMS-Engine as the injected
// status — while no tenant command, failed or not, costs a process. A replay
// of the same seed gives the same digest.
func TestMediaErrorReachesTheTenant(t *testing.T) {
	run := func() (io, digest string, firstRead error, injected uint64) {
		rules, err := fault.ParseSpec("media-err,nth=1,target=PHLJ0001")
		if err != nil {
			t.Fatal(err)
		}
		var dump bytes.Buffer
		tr := trace.New(trace.Options{Dump: &dump})
		cfg := DefaultConfig()
		cfg.NumSSDs = 2
		tb, err := NewBMStoreTestbed(cfg, WithTrace(tr), WithFaults(rules...))
		if err != nil {
			t.Fatal(err)
		}
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		var mark int
		tb.Run(func(p *sim.Proc) {
			must(tb.Console.CreateNamespace(p, "a", 64<<30, []int{0}))
			must(tb.Console.CreateNamespace(p, "b", 512<<30, []int{1}))
			must(tb.Console.Bind(p, "a", 0))
			must(tb.Console.Bind(p, "b", 1))
			a, err := tb.AttachTenant(p, 0, host.DefaultDriverConfig())
			must(err)
			b, err := tb.AttachTenant(p, 1, host.DefaultDriverConfig())
			must(err)
			must(tr.Flush())
			mark = dump.Len()
			firstRead = b.BlockDev(0).ReadAt(p, 1<<20, 1, nil)
			must(b.BlockDev(0).WriteAt(p, 1<<10, 8, nil))
			must(b.BlockDev(0).ReadAt(p, 1<<26, 1, nil))
			must(a.BlockDev(0).ReadAt(p, 0, 1, nil))
		})
		must(tr.Flush())
		return dump.String()[mark:], tr.Digest(), firstRead, tb.Env.Faults().Injected()
	}
	io, digest, firstRead, injected := run()
	if firstRead == nil || !strings.Contains(firstRead.Error(), "0x281") {
		t.Errorf("the first read returned %v, want the injected status 0x281", firstRead)
	}
	if injected != 1 || !regexp.MustCompile(`fault +media .* PHLJ0001`).MatchString(io) {
		t.Errorf("media-err rule: injected %d, want one fired `fault media` record on PHLJ0001", injected)
	}
	for _, rec := range []string{`ssd +issue .* PHLJ0001`, `ssd +complete .* PHLJ0001`, `ssd +complete .* PHLJ0000`} {
		if !regexp.MustCompile(rec).MatchString(io) {
			t.Errorf("no %q record in the I/O phase of the trace", rec)
		}
	}
	if n := strings.Count(io, " spawn "); n != 0 {
		t.Errorf("%d processes spawned by four tenant commands, want none:\n%s", n, io)
	}
	if _, again, _, _ := run(); again != digest {
		t.Errorf("same seed, different digests: %s then %s", digest, again)
	}
}

// TestQoSParksSpawnNoGoroutines guards the fused path's QoS dispatcher. A
// capped tenant parks nearly every command, and the dispatcher used to be a
// process per park: on the fused path, with almost no other goroutine
// hand-offs left per I/O, the Go scheduler starved those finished goroutines
// of their last instructions, thousands of them stayed behind (5 294 on a
// fleet host with 7 live processes) and the runtime never frees their
// stacks' descriptors. The dispatcher is a continuation now, so the
// goroutine count sampled after every capped I/O must stay at the rig's
// handful of long-lived processes.
func TestQoSParksSpawnNoGoroutines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSSDs = 1
	met := obs.NewRegistry()
	tb, err := NewBMStoreTestbed(cfg, WithTrace(trace.NewDigest()), WithMetrics(met))
	if err != nil {
		t.Fatal(err)
	}
	const jobs, iosPerJob = 1, 4000
	var base, peak int
	tb.Run(func(p *sim.Proc) {
		// A fleet host's tenant: one 8000-IOPS namespace under a depth-1 job,
		// so the command buffer drains — and the dispatcher ends — per park.
		if err := tb.Console.CreateNamespace(p, "vol", 64<<30, []int{0}); err != nil {
			t.Fatal(err)
		}
		if err := tb.Console.Bind(p, "vol", 1); err != nil {
			t.Fatal(err)
		}
		if err := tb.Console.SetQoS(p, "vol", 8000, 0); err != nil {
			t.Fatal(err)
		}
		drv, err := tb.AttachTenant(p, 1, host.DefaultDriverConfig())
		if err != nil {
			t.Fatal(err)
		}
		var done []*sim.Event
		for j := 0; j < jobs; j++ {
			bd := drv.BlockDev(j)
			done = append(done, tb.Go("tenant", func(tp *sim.Proc) {
				for i := 0; i < iosPerJob; i++ {
					if err := bd.ReadAt(tp, uint64(i), 1, nil); err != nil {
						panic(err)
					}
					if n := runtime.NumGoroutine(); n > peak {
						peak = n
					}
				}
			}).Done())
		}
		base = runtime.NumGoroutine() // every process of the run exists now
		for _, ev := range done {
			p.Wait(ev)
		}
	})
	parked := counterValue(t, met.Snapshot(), "engine/ns/vol", "qos_parked")
	if parked < jobs*iosPerJob/2 {
		t.Fatalf("only %d of %d commands parked; the cap is not biting", parked, jobs*iosPerJob)
	}
	if peak > base+8 {
		t.Fatalf("goroutines grew from %d to %d over %d QoS parks; the dispatcher is spawning per park",
			base, peak, parked)
	}
}

// TestPayloadMovesWithoutAllocating: on a warmed BM-Store rig, overwriting a
// 16 KiB page (a minidb page: four blocks, a PRP list) and a write-ahead log's
// block (a 436-byte record, then zeroes) and reading each back through the
// whole stack allocates nothing and touches no new page of host memory. The
// caller's buffer is lent to the driver's slot and each block is copied once
// by the SSD's DMA; the store takes each staged page block in exchange for the
// one it held, and copies the log record into the granule it already keeps for
// that block — there is no bounce page, staging copy or fresh block left to
// allocate.
func TestPayloadMovesWithoutAllocating(t *testing.T) {
	tb := smallTestbed(t, 2)
	tb.Run(func(p *sim.Proc) {
		if err := tb.Console.CreateNamespace(p, "vol", 64<<20, []int{0, 1}); err != nil {
			t.Fatal(err)
		}
		if err := tb.Console.Bind(p, "vol", 0); err != nil {
			t.Fatal(err)
		}
		drv, err := tb.AttachTenant(p, 0, host.DefaultDriverConfig())
		if err != nil {
			t.Fatal(err)
		}
		bd := drv.BlockDev(0)
		page, got := make([]byte, 16<<10), make([]byte, 16<<10)
		for i := range page {
			page[i] = byte(i | 1)
		}
		wal := make([]byte, 4<<10)
		for i := range wal[:436] {
			wal[i] = byte(i | 1)
		}
		roundTrip := func(lba uint64, data []byte) {
			if err := bd.WriteAt(p, lba, uint32(len(data)/4096), data); err != nil {
				panic(err)
			}
			if err := bd.ReadAt(p, lba, uint32(len(data)/4096), got[:len(data)]); err != nil {
				panic(err)
			}
			if !bytes.Equal(got[:len(data)], data) {
				panic("read back differs from what was just written")
			}
		}
		round := func() {
			page[0]++
			page[len(page)-1]--
			roundTrip(128, page)
			wal[0]++
			roundTrip(256, wal)
		}
		for i := 0; i < 1100; i++ { // wraps the 1024-deep rings: every ring page is touched
			round()
		}
		touched := tb.Host.Mem.TouchedPages()
		if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
			t.Errorf("overwrite + read back of a written page and log block: %v allocs, want 0", allocs)
		}
		if now := tb.Host.Mem.TouchedPages(); now != touched {
			t.Errorf("host memory grew by %d pages over 200 payload round trips", now-touched)
		}
	})
}
