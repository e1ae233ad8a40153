package fio

import (
	"bytes"
	"fmt"

	"bmstore/internal/chaos"
	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
)

// The verify workload's fixed shape: prefill a region with tagged payloads,
// churn it with depth-1 read/write workers, then sweep the whole region and
// check every block against the chaos oracle.
const (
	// verifyRegionBlocks is the verified LBA region [0, verifyRegionBlocks),
	// partitioned between the workers. The two probe blocks live at
	// verifyRegionBlocks and verifyRegionBlocks+1, so devices must hold at
	// least verifyRegionBlocks+2 blocks.
	verifyRegionBlocks = 128
	verifyWorkers      = 2  // concurrent depth-1 workers
	verifyOpsPerWorker = 32 // churn operations per worker
	// verifySpan is each worker's slice: a whole number of prefill writes
	// and of sweep reads.
	verifySpan = verifyRegionBlocks / verifyWorkers

	verifyWriteRatio    = 50 // percent of churn ops that write
	verifyPrefillBlocks = 4  // blocks per prefill write
	verifySweepBlocks   = 8  // blocks per sweep read

	// verifyGrace is the quiet period between churn and sweep, letting
	// timed-out commands' stragglers drain so the final read-back and the
	// driver's CID books are both settled.
	verifyGrace = 50 * sim.Millisecond
)

// VerifyResult tallies the workload's acknowledged operations and errors.
// Integrity verdicts live in the oracle, not here.
type VerifyResult struct {
	Writes    uint64 // cleanly acknowledged writes
	Reads     uint64 // cleanly completed (and verified) reads
	WriteErrs uint64 // writes that failed with a determinate error
	ReadErrs  uint64 // reads that failed with a determinate error
}

// RunVerify executes the verify workload named name against the devices,
// feeding every operation through the oracle. Worker w uses
// devs[w%len(devs)] and owns an exclusive slice of the region, so no LBA
// ever has two concurrent operations — the invariant the oracle's
// bookkeeping depends on.
//
// It fails fast — before any fault can arm — when the rig cannot support
// verification at all: a rig built without payload capture
// (ssd.Config.CaptureData off), where every read returns zeros and the
// oracle would drown in false losses.
func RunVerify(p *sim.Proc, devs []host.BlockDevice, name string, o *chaos.Oracle) (*VerifyResult, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("fio: verify %q: no devices", name)
	}
	bs := devs[0].BlockSize()
	for i, d := range devs {
		if d.BlockSize() != bs {
			return nil, fmt.Errorf("fio: verify %q: device %d block size %d != %d", name, i, d.BlockSize(), bs)
		}
		if d.CapacityBlocks() < verifyRegionBlocks+2 {
			return nil, fmt.Errorf("fio: verify %q: device %d holds %d blocks, region wants %d+probes", name, i, d.CapacityBlocks(), verifyRegionBlocks)
		}
	}
	// Every I/O reports its outcome, retries and indeterminacy included: what
	// the oracle needs to tell failed writes from indeterminate ones.
	var pk host.Parking
	if err := probe(p, &pk, devs[0], name, o.Seed(), bs); err != nil {
		return nil, err
	}

	env := p.Env()
	res := &VerifyResult{}
	var done []*sim.Event
	for w := 0; w < verifyWorkers; w++ {
		dev := devs[w%len(devs)]
		base := uint64(w) * verifySpan
		rng := env.Rand(fmt.Sprintf("chaos-verify/%s/w%d", name, w))
		proc := env.Go(fmt.Sprintf("verify/%s/w%d", name, w), func(wp *sim.Proc) {
			// Prefill the partition with multi-block tagged writes.
			buf := make([]byte, verifyPrefillBlocks*bs)
			for off := uint64(0); off < verifySpan; off += verifyPrefillBlocks {
				const n = verifyPrefillBlocks
				lba := base + off
				gen, ok := o.BeginWrite(lba, n)
				if !ok {
					continue
				}
				o.FillPayload(buf, lba, gen)
				out := pk.IO(wp, dev, nvme.IOWrite, lba, n, buf)
				o.EndWrite(lba, n, gen, res.writeOutcome(out))
			}
			// Churn: depth-1 single-block ops over the partition.
			one := buf[:bs]
			for i := 0; i < verifyOpsPerWorker; i++ {
				lba := base + uint64(rng.Int63n(verifySpan))
				if rng.Intn(100) < verifyWriteRatio {
					gen, ok := o.BeginWrite(lba, 1)
					if !ok {
						continue // wounded by an earlier indeterminate write
					}
					o.FillPayload(one, lba, gen)
					out := pk.IO(wp, dev, nvme.IOWrite, lba, 1, one)
					o.EndWrite(lba, 1, gen, res.writeOutcome(out))
				} else {
					zero(one)
					res.read(o, "churn", lba, 1, one,
						pk.IO(wp, dev, nvme.IORead, lba, 1, one))
				}
			}
		})
		done = append(done, proc.Done())
	}
	for _, ev := range done {
		p.Wait(ev)
	}

	// Quiet period: let stragglers from timed-out commands land before the
	// final verdicts are taken.
	p.Sleep(verifyGrace)

	// Sweep every partition from the device that wrote it.
	sweep := make([]byte, verifySweepBlocks*bs)
	for w := 0; w < verifyWorkers; w++ {
		dev := devs[w%len(devs)]
		base := uint64(w) * verifySpan
		for off := uint64(0); off < verifySpan; off += verifySweepBlocks {
			lba := base + off
			zero(sweep)
			res.read(o, "sweep", lba, verifySweepBlocks, sweep,
				pk.IO(p, dev, nvme.IORead, lba, verifySweepBlocks, sweep))
		}
	}
	return res, nil
}

// probe writes one tagged block just past the verified region, then reads
// the never-written block after it, then reads the written block back. A rig
// that carries real payloads returns zeros for the virgin block and the tag
// for the written one. A rig built without payload capture moves no bytes at
// all: its device DMAs nothing into the buffer the driver lends it, so both
// reads leave the zeroed buffer as it was, and the written block "reads back"
// as zeros. probe runs before any generated fault rule arms, so a failure
// here is a setup error, never an injected one.
func probe(p *sim.Proc, pk *host.Parking, dev host.BlockDevice, name string, seed int64, bs int) error {
	lba := uint64(verifyRegionBlocks)
	noCapture := fmt.Errorf("fio: verify %q: probe shows the rig is not carrying payload bytes — build it with ssd.Config.CaptureData (bmstore.Config.CaptureData) enabled", name)
	want := make([]byte, bs)
	chaos.FillBlock(want, seed, lba, ^uint64(0))
	if out := pk.IO(p, dev, nvme.IOWrite, lba, 1, want); out.Status != 0 {
		return fmt.Errorf("fio: verify %q: probe write failed: %v", name, out.Status)
	}
	got := make([]byte, bs)
	if out := pk.IO(p, dev, nvme.IORead, lba+1, 1, got); out.Status != 0 {
		return fmt.Errorf("fio: verify %q: probe read failed: %v", name, out.Status)
	}
	if !allZero(got) {
		return fmt.Errorf("fio: verify %q: never-written probe block reads back nonzero before any fault armed — the rig is miswired", name)
	}
	zero(got)
	if out := pk.IO(p, dev, nvme.IORead, lba, 1, got); out.Status != 0 {
		return fmt.Errorf("fio: verify %q: probe read failed: %v", name, out.Status)
	}
	if bytes.Equal(got, want) {
		return nil
	}
	if allZero(got) {
		return noCapture
	}
	return fmt.Errorf("fio: verify %q: probe read-back mismatch before any fault armed — the rig is miswired", name)
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// writeOutcome tallies one write completion and maps it to the oracle's
// episode outcome: a timeout means the write may or may not have landed.
func (r *VerifyResult) writeOutcome(out host.IOOutcome) chaos.WriteOutcome {
	switch {
	case out.TimedOut:
		return chaos.WriteInDoubt
	case out.Status != 0:
		r.WriteErrs++
		return chaos.WriteFailed
	}
	r.Writes++
	return chaos.WriteAcked
}

// read tallies one read completion and verifies the payload when it is
// determinate. A timed-out read leaves the buffer contents undefined (a
// straggling DMA may land at any point), so it is neither checked nor
// counted.
func (r *VerifyResult) read(o *chaos.Oracle, phase string, lba uint64, blocks int, buf []byte, out host.IOOutcome) {
	switch {
	case out.TimedOut:
	case out.Status != 0:
		r.ReadErrs++
	default:
		r.Reads++
		o.CheckRead(phase, lba, blocks, buf)
	}
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
