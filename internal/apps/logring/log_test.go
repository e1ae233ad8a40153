package logring

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"

	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
)

// memDev is a block device over a flat byte slice whose reads complete inside
// Submit and whose writes, submitted on env, take writeTime, during which
// inFlight is set. It keeps a copy of every write. While failing is above
// zero, each write fails instead, with nvme.StatusInternal, and counts it
// down.
type memDev struct {
	host.Parking
	env       *sim.Env
	data      []byte
	writeTime sim.Time
	inFlight  bool
	writes    []write
	failing   int
}

// errWrite is a write's error while memDev is failing, matched by its status.
var errWrite = host.StatusError(nvme.StatusInternal)

type write struct {
	lba  uint64
	data []byte
}

func newMemDev(env *sim.Env, blocks int, writeTime sim.Time, failing int) *memDev {
	m := &memDev{env: env, data: make([]byte, blocks*4096), writeTime: writeTime, failing: failing}
	m.Parking = host.NewParking(m)
	return m
}

func (m *memDev) BlockSize() int         { return 4096 }
func (m *memDev) CapacityBlocks() uint64 { return uint64(len(m.data) / 4096) }
func (m *memDev) PerIOCPU() sim.Time     { return 0 }

// Submit takes reads and writes only; the log never flushes.
func (m *memDev) Submit(op uint8, lba uint64, blocks uint32, data []byte, done func(host.IOOutcome)) {
	n := uint64(blocks) * 4096
	switch op {
	case nvme.IORead:
		copy(data, m.data[lba*4096:lba*4096+n])
		done(host.IOOutcome{Attempts: 1})
		return
	case nvme.IOFlush:
		panic("memDev: Submit of a flush")
	}
	m.writes = append(m.writes, write{lba, slices.Clone(data[:n])})
	m.inFlight = true
	m.env.Schedule(m.writeTime, func() {
		m.inFlight = false
		if m.failing > 0 {
			m.failing--
			done(host.IOOutcome{Status: nvme.StatusInternal, Attempts: 1})
			return
		}
		copy(m.data[lba*4096:], data[:n])
		done(host.IOOutcome{Attempts: 1})
	})
}

// A test record: crc32(rest) u32 | lsn u64 | payload length u32 | payload.
const testHeader = 16

func appendTest(dst []byte, lsn uint64, payload []byte) []byte {
	n := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(dst[n:], crc32.ChecksumIEEE(dst[n+4:]))
	return dst
}

func testLSN(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec[4:]) }

func testEnd(b []byte, off int) int {
	if off+testHeader > len(b) {
		return Short
	}
	if binary.LittleEndian.Uint64(b[off+4:]) == 0 {
		return Bad
	}
	end := off + testHeader + int(binary.LittleEndian.Uint32(b[off+12:]))
	if end > len(b) {
		return Short
	}
	if crc32.ChecksumIEEE(b[off+4:end]) != binary.LittleEndian.Uint32(b[off:]) {
		return Bad
	}
	return end
}

// TestLogAcrossRingWraps drives one log from concurrent appenders across
// several wraps of a small ring, with syncs that land while a batch's write
// is in flight, then recovers the ring. Each batch is written inside the ring
// in one command; each sync returns once everything appended before it is on
// the device; and recovery past the newest batch a later write overwrote
// returns every acknowledged record after it, intact and in LSN order.
func TestLogAcrossRingWraps(t *testing.T) {
	const base, blocks = 7, 16
	env := sim.NewEnv(1)
	dev := newMemDev(env, base+2*blocks, 30*sim.Microsecond, 0)
	log := New(env, dev, "test/log", base, blocks)
	payload := func(lsn uint64) []byte {
		b := make([]byte, 100+int(lsn*7919%1400))
		for i := range b {
			b[i] = byte(lsn + uint64(i))
		}
		return b
	}

	var acked []uint64
	appenders := 4
	for a := 0; a < appenders; a++ {
		pause := sim.Time(1+11*a) * sim.Microsecond
		env.Go("appender", func(p *sim.Proc) {
			defer func() { appenders-- }()
			for i := 0; i < 60; i++ {
				lsn := log.Append(func(batch []byte, lsn uint64) []byte { return appendTest(batch, lsn, payload(lsn)) })
				if err := log.Wait(p, lsn); err != nil {
					t.Errorf("LSN %d: %v", lsn, err)
				}
				acked = append(acked, lsn)
				p.Sleep(pause)
			}
		})
	}
	syncsInFlight := 0
	env.Go("syncer", func(p *sim.Proc) {
		for appenders > 0 {
			p.Sleep(3 * sim.Microsecond)
			if !dev.inFlight {
				continue
			}
			syncsInFlight++
			before := log.NextLSN() - 1
			if err := log.Sync(p); err != nil {
				t.Errorf("sync: %v", err)
			}
			if dev.inFlight || log.done < before {
				t.Errorf("sync returned before LSN %d was written (last written %d)", before, log.done)
			}
		}
	})
	env.Run()
	if len(acked) != 4*60 {
		t.Fatalf("%d appends acknowledged, want %d", len(acked), 4*60)
	}
	if syncsInFlight < 3 {
		t.Fatalf("%d syncs landed while a write was in flight, want at least 3", syncsInFlight)
	}

	// Every batch inside the ring, the wraps, and the newest LSN of a batch a
	// later write overwrote: recovery past it must find all the rest.
	type span struct{ from, to, last uint64 }
	var live []span
	var stale uint64
	wraps := 0
	for i, w := range dev.writes {
		from, to := w.lba, w.lba+uint64(len(w.data)/4096)
		if from < base || to > base+blocks {
			t.Fatalf("write %d covers blocks [%d, %d), outside the ring [%d, %d)", i, from, to, base, base+blocks)
		}
		if i > 0 && from < dev.writes[i-1].lba {
			wraps++
		}
		var last uint64
		for off := 0; ; {
			end := testEnd(w.data, off)
			if end < 0 {
				break
			}
			last, off = binary.LittleEndian.Uint64(w.data[off+4:]), end
		}
		kept := live[:0]
		for _, s := range live {
			if s.from < to && from < s.to {
				stale = max(stale, s.last)
			} else {
				kept = append(kept, s)
			}
		}
		live = append(kept, span{from, to, last})
	}
	if wraps < 3 {
		t.Fatalf("the log wrapped %d times, want at least 3", wraps)
	}

	var got []uint64
	env = sim.NewEnv(1)
	rec := New(env, dev, "test/log", base, blocks)
	env.Go("recover", func(p *sim.Proc) {
		err := rec.Recover(p, stale, testEnd, testLSN, func(r []byte) error {
			lsn := testLSN(r)
			if !slices.Equal(r[testHeader:], payload(lsn)) {
				t.Errorf("LSN %d recovered with the wrong payload", lsn)
			}
			got = append(got, lsn)
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	})
	env.Run()
	slices.Sort(acked) // 1, 2, ... 240
	if want := acked[stale:]; !slices.Equal(got, want) {
		t.Fatalf("recovered past LSN %d: %v, want %v", stale, got, want)
	}
	if rec.NextLSN() != uint64(len(acked))+1 {
		t.Fatalf("next LSN %d after recovery, want %d", rec.NextLSN(), len(acked)+1)
	}
}

// TestWaitReportsEveryBatchSinceFrom: a committer whose records landed in two
// batches, the first of which failed, gets that failure from Wait although
// its own last batch was written, and so does a sync that began while the
// failed batch was in flight; a committer whose records all came after it,
// and a later sync, get nil.
func TestWaitReportsEveryBatchSinceFrom(t *testing.T) {
	env := sim.NewEnv(1)
	dev := newMemDev(env, 32, 30*sim.Microsecond, 1)
	log := New(env, dev, "test/log", 0, 16)
	put := func() uint64 {
		return log.Append(func(batch []byte, lsn uint64) []byte { return appendTest(batch, lsn, []byte("row")) })
	}
	errs := map[string]error{}
	env.Go("starter", func(p *sim.Proc) { errs["starter"] = log.Wait(p, put()) })
	env.Go("split", func(p *sim.Proc) {
		first := put()
		p.Sleep(25 * sim.Microsecond) // the first batch is taken at 20 µs
		put()
		errs["split"] = log.Wait(p, first)
	})
	env.Go("syncs", func(p *sim.Proc) {
		p.Sleep(30 * sim.Microsecond) // the first batch's write is in flight
		errs["sync during"] = log.Sync(p)
		errs["sync after"] = log.Sync(p)
	})
	env.Go("later", func(p *sim.Proc) {
		p.Sleep(25 * sim.Microsecond)
		errs["later"] = log.Wait(p, put())
	})
	env.Run()
	for name, want := range map[string]error{"starter": errWrite, "split": errWrite, "sync during": errWrite, "sync after": nil, "later": nil} {
		if err := errs[name]; !errors.Is(err, want) {
			t.Errorf("%s: %v, want %v", name, err, want)
		}
	}
	if len(dev.writes) != 2 {
		t.Fatalf("%d writes, want the failed batch and the next", len(dev.writes))
	}
}

// TestFailedWriteWordedAsWriteAt: a failed batch write's error wraps what the
// device's WriteAt returns for the same failure: the outcome's StatusError.
func TestFailedWriteWordedAsWriteAt(t *testing.T) {
	env := sim.NewEnv(1)
	dev := newMemDev(env, 8, sim.Microsecond, 2)
	log := New(env, dev, "test/log", 2, 4)
	var err, direct error
	env.Go("committer", func(p *sim.Proc) {
		err = log.Wait(p, log.Append(func(batch []byte, lsn uint64) []byte { return appendTest(batch, lsn, []byte("row")) }))
		direct = dev.WriteAt(p, 2, 1, make([]byte, 4096))
	})
	env.Run()
	if want := "test/log: writing a 1-block batch at block 2: nvme: status 0x6"; err == nil || err.Error() != want || !errors.Is(err, errWrite) || !errors.Is(direct, errWrite) {
		t.Errorf("Wait returned %v, want %q; WriteAt returned %v", err, want, direct)
	}
}
