package bmstore

import (
	"testing"

	"bmstore/internal/fault"
	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
	"bmstore/internal/trace"
)

// BenchmarkIOPathThroughput prices one 4 KiB I/O end to end through the
// event-fused data path — host driver → BMS-Engine → SSD and back — at
// queue depth 8 with a 3:1 read:write mix. One benchmark op is one I/O.
//
// The steady state must stay at 0 allocs/op (pinned by make bench-gate):
// every carrier on the path — kernel events, MMIO/IRQ messages, engine and
// SSD command records, PRP segment lists — comes from a per-env free list, a
// CQE reaches the attempt that waits for it through the driver's slot table
// with no carrier at all, and with CaptureData off no payload bytes are
// materialised.
func BenchmarkIOPathThroughput(b *testing.B) {
	benchIOPath(b, host.DefaultDriverConfig(), 1, 8, 1, nil)
}

// BenchmarkIOPathDeepQueue is the same loop over 4 queues x QD 128 — the
// shape of fio's rand-r-128 case that Table V and the repo benchmark's
// rand4k workload run. With 512 I/Os in flight nearly every read queues for
// a NAND die (sim.Resource under contention) and the event heap is hundreds
// deep, neither of which the one-queue QD 8 loop reaches; both must stay
// allocation-free.
func BenchmarkIOPathDeepQueue(b *testing.B) {
	benchIOPath(b, host.DefaultDriverConfig(), 4, 128, 1, nil)
}

// BenchmarkIOPathLargeIO is the QD 8 loop at 32 blocks = 128 KiB per I/O, the
// size of the repo benchmark's seq128k workload: the driver builds a PRP list
// per command, the engine and then the SSD each walk it through the target
// controller's list reader (a list-page DMA fetch and a retry per command,
// twice), and every read stripes over four NAND dies. None of that runs at
// 4 KiB, so this row is the list path's allocs/op ceiling.
func BenchmarkIOPathLargeIO(b *testing.B) { benchIOPath(b, host.DefaultDriverConfig(), 1, 8, 32, nil) }

// BenchmarkIOPathPayload is the QD 8 loop carrying real bytes: payload capture
// on, every worker writes its own 4 KiB buffer of data to a block and the next
// I/O reads that block back into one (1:1, so events/op sits below the 3:1
// rows'). After the warm-up batch every block the loop touches has been
// written, so a write is the driver lending the buffer, one DMA copy into the
// SSD's staging buffer and an exchange with the stored block, and a read is
// one DMA copy out of the stored block into the lent buffer: no page of host
// memory and no block of the store is allocated per I/O, and the row is pinned
// at 0 allocs/op like the dataless ones.
func BenchmarkIOPathPayload(b *testing.B) {
	benchIOPath(b, host.DefaultDriverConfig(), 1, 8, 1, func(buf []byte) {
		for i := range buf {
			buf[i] = byte(i | 1)
		}
	})
}

// BenchmarkIOPathPayloadWAL is the Payload loop with a write-ahead log's
// block: a 436-byte record (a kvstore WAL batch of one YCSB update), then
// zeroes, rewritten round the blocks. The store keeps the record's granule and
// copies each rewrite into it in place, the staging buffer staying with the
// command, and a read gathers the block in the command's staging buffer: 0
// allocs/op, and the same events as the Payload row, for the store's choice
// of copy or exchange is no part of the timing.
func BenchmarkIOPathPayloadWAL(b *testing.B) {
	benchIOPath(b, host.DefaultDriverConfig(), 1, 8, 1, func(buf []byte) {
		for i := range buf[:436] {
			buf[i] = byte(i | 1)
		}
	})
}

// BenchmarkIOPathTracedThroughput is the same loop with a digest tracer
// attached — what every fleet host, the figures gate and the crash sweep
// run. The trace emits are nil-checked probes on the fused chain and the
// digest folds words, so it too must stay at 0 allocs/op.
func BenchmarkIOPathTracedThroughput(b *testing.B) {
	tr := trace.NewDigest()
	benchIOPath(b, host.DefaultDriverConfig(), 1, 8, 1, nil, WithTrace(tr))
	if tr.Events() == 0 {
		b.Fatal("tracer observed nothing")
	}
}

// BenchmarkIOPathArmedFaultsThroughput is the same loop with a fault
// injector armed but never firing (one rule per data-path point, all at a
// far-future t=): what a chaos or fault rig pays on every command that no
// rule hits. Rule evaluation walks a slice and must allocate nothing.
func BenchmarkIOPathArmedFaultsThroughput(b *testing.B) {
	rules, err := fault.ParseSpec("ssd-stall,t=1000h;backend-stall,t=1000h;media-slow,t=1000h;pcie-replay,t=1000h")
	if err != nil {
		b.Fatal(err)
	}
	benchIOPath(b, host.DefaultDriverConfig(), 1, 8, 1, nil, WithFaults(rules...))
}

// BenchmarkIOPathRecoveringThroughput is the QD 8 loop under the verify
// campaign's recovering driver (internal/experiments' verifyDriver: 3 ms
// command timeouts, 10 retries, 200 µs back-off) with no fault firing — what
// every chaos and crash-sweep I/O pays. Each attempt arms a CmdTimeout timer
// that its CQE cancels, so this row prices the timeout-armed attempt, which
// the rows above never run.
func BenchmarkIOPathRecoveringThroughput(b *testing.B) {
	dcfg := host.DefaultDriverConfig()
	dcfg.CmdTimeout, dcfg.MaxRetries, dcfg.RetryBackoff = 3*sim.Millisecond, 10, 200*sim.Microsecond
	benchIOPath(b, dcfg, 1, 8, 1, nil)
}

// benchIOPath runs the shared R/W loop, qd I/Os of `blocks` 4 KiB blocks in
// flight on each of the tenant's first `queues` queue pairs — each a closed
// loop of Submit callbacks, as fio's workers are — on a two-SSD rig built
// with opts, whose tenant driver is attached with dcfg; given a fill, the rig
// captures payload and each worker owns a buffer, filled once by fill, and
// alternates writing it to a block and reading the block back (reads bring
// back what writes stored, so the contents never change). The warm-up batch runs at the measured depth so the timed
// region starts with every pool primed, every ring page touched, and the
// queues already wrapped. Besides time and allocations it reports the kernel
// events fired per I/O over the timed region ("events/op"), which at a fixed
// -benchtime is exact and repeats: make bench-gate pins it, so an observer or
// a fault probe that starts scheduling shows there.
func benchIOPath(b *testing.B, dcfg host.DriverConfig, queues, qd, blocks int, fill func(buf []byte), opts ...Option) {
	const nsBlocks = 64 << 20 / 4096
	// I/Os start 8 blocks apart (their own size apart once that is larger),
	// on up to 1024 distinct offsets inside the namespace.
	stride := max(8, blocks)
	offsets := min(1024, nsBlocks/stride)
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.NumSSDs = 2
	cfg.Engine.ChunkBytes = 1 << 24
	cfg.SSD = func(i int) ssd.Config {
		c := ssd.P4510("BN" + string(rune('A'+i)))
		c.CapacityBytes = 1 << 30
		return c
	}
	cfg = cfg.With(opts...)
	payload := fill != nil
	cfg.CaptureData = payload
	tb, err := NewBMStoreTestbed(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	tb.Run(func(p *sim.Proc) {
		if err := tb.Console.CreateNamespace(p, "vol", nsBlocks*4096, []int{0, 1}); err != nil {
			panic(err)
		}
		if err := tb.Console.Bind(p, "vol", 0); err != nil {
			panic(err)
		}
		drv, err := tb.AttachTenant(p, 0, dcfg)
		if err != nil {
			panic(err)
		}
		env := p.Env()
		devs := make([]host.BlockDevice, queues)
		for q := range devs {
			devs[q] = drv.BlockDev(q)
		}
		// Each worker is one outstanding I/O as a chain over Submit: its
		// completion claims the next I/O and submits it, until the batch's
		// target is claimed.
		type ioWorker struct {
			buf  []byte
			done func(host.IOOutcome)
		}
		var claimed, target, active int
		var batch *sim.Event
		next := func(w *ioWorker) {
			if claimed >= target {
				if active--; active == 0 {
					batch.Trigger(nil)
				}
				return
			}
			i := claimed
			claimed++
			lba := uint64(i%offsets) * uint64(stride)
			dev := devs[(i>>2)%queues] // >>2: every queue sees the 3:1 mix
			write := i&3 == 3
			if payload {
				lba, write = uint64((i>>1)%offsets)*uint64(stride), i&1 == 0
			}
			op := uint8(nvme.IORead)
			if write {
				op = nvme.IOWrite
			}
			dev.Submit(op, lba, uint32(blocks), w.buf, w.done)
		}
		workers := make([]*ioWorker, queues*qd)
		for k := range workers {
			w := &ioWorker{}
			if payload {
				w.buf = make([]byte, blocks*4096)
				fill(w.buf)
			}
			w.done = func(oc host.IOOutcome) {
				if err := oc.Err(); err != nil {
					panic(err)
				}
				next(w)
			}
			workers[k] = w
		}
		drain := func(n int) {
			target = claimed + n
			active = len(workers)
			batch = env.NewEvent()
			for _, w := range workers {
				next(w)
			}
			p.Wait(batch)
		}
		drain(4096)
		b.ResetTimer()
		events := env.Events()
		drain(b.N)
		b.StopTimer()
		b.ReportMetric(float64(env.Events()-events)/float64(b.N), "events/op")
	})
}
