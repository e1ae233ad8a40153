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

// errWrite is a failing write's error, matched by its status.
var errWrite = host.StatusError(nvme.StatusInternal)

// TestFailedWALWriteIsNotAcknowledged: when the device fails a WAL batch's
// write, the Put in that batch and a Flush that waits for it both return the
// error, and the put is not applied.
func TestFailedWALWriteIsNotAcknowledged(t *testing.T) {
	const walBlocks = 64
	env := sim.NewEnv(1)
	dev := newRingDev(env, make([]byte, (manifestBlocks+walBlocks+64)*4096), manifestBlocks, manifestBlocks+walBlocks)
	var putErr, flushErr error
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
		if _, ok, _ := s.Get(p, []byte("k"), nil); ok {
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
	env := sim.NewEnv(1)
	dev := newRingDev(env, make([]byte, (manifestBlocks+walBlocks+64)*4096), manifestBlocks+walBlocks, ^uint64(0))
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
		if v, ok, err := s.Get(p, []byte("k"), nil); err != nil || !ok || string(v) != "v" {
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
		env := sim.NewEnv(1)
		dev := newRingDev(env, make([]byte, (manifestBlocks+walBlocks+64)*4096), 0, 0)
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
