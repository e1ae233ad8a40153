package kvstore

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
)

var errWrite = errors.New("injected write failure")

// faultyDev is a ringDev whose writes to any of the blocks [failFrom,
// failTo) fail after 10 µs, whether a process writes or a caller submits. It
// notes the blocks each write covers. A submitted write fails on env, the
// environment of the last process that read or wrote through the device.
type faultyDev struct {
	ringDev
	env              *sim.Env
	failFrom, failTo uint64
	writes           [][2]uint64 // lba, blocks
}

// fails notes a write and reports whether it fails.
func (d *faultyDev) fails(lba uint64, blocks uint32) bool {
	d.writes = append(d.writes, [2]uint64{lba, uint64(blocks)})
	return lba < d.failTo && d.failFrom < lba+uint64(blocks)
}

func (d *faultyDev) ReadAt(p *sim.Proc, lba uint64, blocks uint32, buf []byte) error {
	d.env = p.Env()
	return d.ringDev.ReadAt(p, lba, blocks, buf)
}

func (d *faultyDev) WriteAt(p *sim.Proc, lba uint64, blocks uint32, data []byte) error {
	d.env = p.Env()
	if d.fails(lba, blocks) {
		p.Sleep(10 * sim.Microsecond)
		return errWrite
	}
	return d.ringDev.WriteAt(p, lba, blocks, data)
}

func (d *faultyDev) Submit(op uint8, lba uint64, blocks uint32, buf []byte, done func(host.IOOutcome)) {
	if op == nvme.IOWrite && d.fails(lba, blocks) {
		d.env.Schedule(10*sim.Microsecond, func() { done(host.IOOutcome{Status: nvme.StatusInternal, Attempts: 1}) })
		return
	}
	d.ringDev.Submit(op, lba, blocks, buf, done)
}

// WriteErr words a failed submitted write as WriteAt does.
func (d *faultyDev) WriteErr(oc host.IOOutcome) error {
	if oc.Status.IsError() {
		return errWrite
	}
	return nil
}

// TestFailedWALWriteIsNotAcknowledged: when the device fails a WAL batch's
// write, the Put in that batch and a Flush that waits for it both return the
// error, and the put is not applied.
func TestFailedWALWriteIsNotAcknowledged(t *testing.T) {
	const walBlocks = 64
	dev := &faultyDev{
		ringDev:  ringDev{data: make([]byte, (manifestBlocks+walBlocks+64)*4096)},
		failFrom: manifestBlocks, failTo: manifestBlocks + walBlocks,
	}
	var putErr, flushErr error
	env := sim.NewEnv(1)
	env.Go("test", func(p *sim.Proc) {
		s, err := Open(p, env, dev, Config{MemtableBytes: 1 << 20, WALBytes: walBlocks * 4096})
		if err != nil {
			t.Error(err)
			return
		}
		put := env.Go("put", func(pp *sim.Proc) { putErr = s.Put(pp, []byte("k"), []byte("v")) })
		p.Sleep(sim.Microsecond) // inside the group-commit window
		flushErr = s.Flush(p)
		p.Wait(put.Done())
		if _, ok, _ := s.Get(p, []byte("k")); ok {
			t.Error("the failed put is visible")
		}
	})
	env.Run()
	if !errors.Is(putErr, errWrite) || !errors.Is(flushErr, errWrite) {
		t.Fatalf("Put returned %v and Flush %v, want both %v", putErr, flushErr, errWrite)
	}
}

// TestFailedFlushKeepsTheMemtable: when the device fails a flush's table
// write, Flush returns the error, the flushed keys stay readable, and the
// error is sticky: a later Put returns it too.
func TestFailedFlushKeepsTheMemtable(t *testing.T) {
	const walBlocks = 64
	dev := &faultyDev{
		ringDev:  ringDev{data: make([]byte, (manifestBlocks+walBlocks+64)*4096)},
		failFrom: manifestBlocks + walBlocks, failTo: ^uint64(0),
	}
	env := sim.NewEnv(1)
	env.Go("test", func(p *sim.Proc) {
		s, err := Open(p, env, dev, Config{MemtableBytes: 1 << 20, WALBytes: walBlocks * 4096})
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Put(p, []byte("k"), []byte("v")); err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		if err := s.Flush(p); !errors.Is(err, errWrite) {
			t.Errorf("Flush returned %v, want %v", err, errWrite)
		}
		if v, ok, err := s.Get(p, []byte("k")); err != nil || !ok || string(v) != "v" {
			t.Errorf("after the failed flush Get(k) = %q, %v, %v", v, ok, err)
		}
		if err := s.Put(p, []byte("k2"), []byte("v2")); !errors.Is(err, errWrite) {
			t.Errorf("Put after the failed flush returned %v, want %v", err, errWrite)
		}
		if err := s.Flush(p); !errors.Is(err, errWrite) {
			t.Errorf("second Flush returned %v, want %v", err, errWrite)
		}
	})
	env.Run()
}

// TestWALBatchLargerThanTheRing: a Put whose record does not fit the whole
// WAL ring returns an error naming the ring's size, and nothing is written
// outside the ring.
func TestWALBatchLargerThanTheRing(t *testing.T) {
	for _, walBlocks := range []uint64{2, 0} {
		dev := &faultyDev{ringDev: ringDev{data: make([]byte, (manifestBlocks+walBlocks+64)*4096)}}
		env := sim.NewEnv(1)
		env.Go("test", func(p *sim.Proc) {
			s, err := Open(p, env, dev, Config{MemtableBytes: 1 << 20, WALBytes: walBlocks * 4096})
			if err != nil {
				t.Error(err)
				return
			}
			err = s.Put(p, []byte("k"), make([]byte, 3*4096))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d-block", walBlocks)) {
				t.Errorf("%d-block ring: Put of a 3-block record returned %v", walBlocks, err)
			}
		})
		env.Run()
		for _, w := range dev.writes {
			if w[0] < manifestBlocks || w[0]+w[1] > manifestBlocks+walBlocks {
				t.Errorf("%d-block ring: wrote blocks [%d, %d), outside the ring [%d, %d)", walBlocks, w[0], w[0]+w[1], manifestBlocks, manifestBlocks+walBlocks)
			}
		}
	}
}
