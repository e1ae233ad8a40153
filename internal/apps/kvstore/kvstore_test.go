package kvstore_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"bmstore/internal/apps/kvstore"
	"bmstore/internal/host"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
)

// rig: host + one data-capturing SSD + driver, plus a helper to run a
// process to completion.
type rig struct {
	env *sim.Env
	drv *host.Driver
}

func newRig(t *testing.T) *rig {
	t.Helper()
	env := sim.NewEnv(21)
	h := host.New(env, 768<<30, host.CentOS("3.10.0"))
	cfg := ssd.P4510("KV001")
	cfg.CapacityBytes = 4 << 30
	dev := ssd.New(env, cfg)
	link := pcie.NewLink(env, 4, 300*sim.Nanosecond)
	port := h.Connect(link, dev, nil)
	dev.Attach(port)
	r := &rig{env: env}
	var err error
	env.Go("attach", func(p *sim.Proc) {
		dcfg := host.DefaultDriverConfig()
		dcfg.CreateNSBlocks = cfg.CapacityBytes / ssd.BlockSize
		r.drv, err = host.AttachDriver(p, h, port, 0, dcfg)
	})
	env.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *rig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	main := r.env.Go("test", fn)
	r.env.RunUntilEvent(main.Done())
	r.env.Shutdown()
}

func smallCfg() kvstore.Config {
	cfg := kvstore.DefaultConfig()
	cfg.MemtableBytes = 64 << 10 // flush often so tests exercise tables
	cfg.WALBytes = 4 << 20
	return cfg
}

func key(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%d-%032d", i, i*7)) }

func TestPutGetBasics(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		s, err := kvstore.Open(p, r.env, r.drv.BlockDev(0), smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := s.Get(p, key(1), nil); ok {
			t.Fatal("ghost key")
		}
		for i := 0; i < 100; i++ {
			if err := s.Put(p, key(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			v, ok, err := s.Get(p, key(i), nil)
			if err != nil || !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("get %d: %q ok=%v err=%v", i, v, ok, err)
			}
		}
		// Overwrite and delete.
		s.Put(p, key(5), []byte("new"))
		s.Put(p, key(6), nil)
		if v, ok, _ := s.Get(p, key(5), nil); !ok || string(v) != "new" {
			t.Fatalf("overwrite lost: %q", v)
		}
		if _, ok, _ := s.Get(p, key(6), nil); ok {
			t.Fatal("delete lost")
		}
	})
}

// TestStoreCopiesWhatItKeeps: the store keeps its own copy of every key and
// value handed to Put and reads a Get's or Scan's key only during the call,
// so a caller may refill one key and one value buffer per operation, as the
// YCSB clients do. After every call the test scribbles over the buffers it
// passed, then reads everything back — from the memtable, from the tables
// the scribbled memtables were flushed to, and through a scan.
func TestStoreCopiesWhatItKeeps(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		s, err := kvstore.Open(p, r.env, r.drv.BlockDev(0), smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		var kb, vb []byte
		scribble := func() {
			for i := range kb {
				kb[i] = '#'
			}
			for i := range vb {
				vb[i] = '#'
			}
		}
		want := func(i int) []byte { return append(val(i), "-v2"...) }
		for i := 0; i < 3000; i++ { // several memtables' worth
			kb, vb = append(kb[:0], key(i)...), append(vb[:0], val(i)...)
			if err := s.Put(p, kb, vb); err != nil {
				t.Fatal(err)
			}
			scribble()
		}
		for i := 2990; i < 3000; i++ { // an update keeps the stored key
			kb, vb = append(kb[:0], key(i)...), append(vb[:0], want(i)...)
			if err := s.Put(p, kb, vb); err != nil {
				t.Fatal(err)
			}
			scribble()
		}
		for i := 0; i < 3000; i++ {
			kb = append(kb[:0], key(i)...)
			v, ok, err := s.Get(p, kb, nil)
			scribble()
			w := val(i)
			if i >= 2990 {
				w = want(i)
			}
			if err != nil || !ok || !bytes.Equal(v, w) {
				t.Fatalf("get %d: %q ok=%v err=%v, want %q", i, v, ok, err, w)
			}
		}
		kb = append(kb[:0], key(2985)...)
		got, err := s.Scan(p, kb, 10)
		scribble()
		if err != nil || len(got) != 10 {
			t.Fatalf("scan: %d rows, err=%v", len(got), err)
		}
		for j, kv := range got {
			i := 2985 + j
			w := val(i)
			if i >= 2990 {
				w = want(i)
			}
			if !bytes.Equal(kv.Key, key(i)) || !bytes.Equal(kv.Value, w) {
				t.Fatalf("scan row %d = %q=%q, want %q=%q", j, kv.Key, kv.Value, key(i), w)
			}
		}
	})
}

func TestFlushAndTableReads(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		s, err := kvstore.Open(p, r.env, r.drv.BlockDev(0), smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		const n = 3000 // well past the 64K memtable
		for i := 0; i < n; i++ {
			s.Put(p, key(i), val(i))
		}
		if err := s.Flush(p); err != nil {
			t.Fatal(err)
		}
		s.WaitIdle(p)
		if s.Stats.Flushes == 0 {
			t.Fatal("no flush happened")
		}
		// All keys must now be served, many from tables.
		for i := 0; i < n; i += 97 {
			v, ok, err := s.Get(p, key(i), nil)
			if err != nil || !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("get %d after flush: ok=%v err=%v", i, ok, err)
			}
		}
		if s.Stats.GetHitsMem == s.Stats.Gets {
			t.Fatal("no reads hit the tables")
		}
	})
}

func TestCompactionKeepsData(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		s, err := kvstore.Open(p, r.env, r.drv.BlockDev(0), smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		const n = 8000
		rng := rand.New(rand.NewSource(3))
		live := map[int]int{} // key -> version
		for i := 0; i < n; i++ {
			k := rng.Intn(2000)
			live[k] = i
			s.Put(p, key(k), val(live[k]))
		}
		s.Flush(p)
		s.WaitIdle(p)
		if s.Stats.Compactions == 0 {
			t.Fatal("no compaction ran")
		}
		for k, ver := range live {
			v, ok, err := s.Get(p, key(k), nil)
			if err != nil || !ok || !bytes.Equal(v, val(ver)) {
				t.Fatalf("key %d after compaction: ok=%v err=%v", k, ok, err)
			}
		}
	})
}

func TestScanMergesLevels(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		s, err := kvstore.Open(p, r.env, r.drv.BlockDev(0), smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			s.Put(p, key(i), val(i))
		}
		s.Flush(p)
		s.WaitIdle(p)
		// Newer versions in the memtable shadow table data.
		s.Put(p, key(500), []byte("fresh"))
		s.Put(p, key(501), nil)
		got, err := s.Scan(p, key(499), 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 {
			t.Fatalf("scan returned %d", len(got))
		}
		if !bytes.Equal(got[0].Key, key(499)) || string(got[1].Value) != "fresh" {
			t.Fatalf("scan head %q=%q, next %q=%q", got[0].Key, got[0].Value, got[1].Key, got[1].Value)
		}
		// 501 deleted: next must be 502.
		if !bytes.Equal(got[2].Key, key(502)) {
			t.Fatalf("tombstone leaked: %q", got[2].Key)
		}
	})
}

func TestReopenAfterCleanFlush(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		cfg := smallCfg()
		s, _ := kvstore.Open(p, r.env, r.drv.BlockDev(0), cfg)
		for i := 0; i < 2000; i++ {
			s.Put(p, key(i), val(i))
		}
		s.Flush(p)
		s.WaitIdle(p)

		// "Restart the process": open a second store on the same device.
		s2, err := kvstore.Open(p, r.env, r.drv.BlockDev(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i += 53 {
			v, ok, err := s2.Get(p, key(i), nil)
			if err != nil || !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("reopened get %d: ok=%v err=%v", i, ok, err)
			}
		}
	})
}

// TestFlushDuringAWALWriteReturns: a Flush that arrives while a group
// commit's device write is in flight, with no Put after it, returns once that
// write is durable instead of waiting for an append that never comes.
func TestFlushDuringAWALWriteReturns(t *testing.T) {
	r := newRig(t)
	flushed := false
	main := r.env.Go("test", func(p *sim.Proc) {
		s, err := kvstore.Open(p, r.env, r.drv.BlockDev(0), smallCfg())
		if err != nil {
			t.Error(err)
			return
		}
		put := r.env.Go("put", func(pp *sim.Proc) {
			if err := s.Put(pp, key(1), val(1)); err != nil {
				t.Error(err)
			}
		})
		// The batch's write starts when the 20 µs group-commit window
		// closes and is still in flight 2 µs later.
		p.Sleep(22 * sim.Microsecond)
		if err := s.Flush(p); err != nil {
			t.Error(err)
		}
		flushed = true
		p.Wait(put.Done())
	})
	if _, diag := r.env.RunUntilEventWatched(main.Done(), sim.Second); diag != nil {
		t.Fatalf("flushed=%v: %v", flushed, diag)
	}
	r.env.Shutdown()
}

func TestCrashRecoveryReplaysWAL(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		cfg := smallCfg()
		cfg.MemtableBytes = 32 << 20 // never flush: everything lives in WAL
		s, _ := kvstore.Open(p, r.env, r.drv.BlockDev(0), cfg)
		for i := 0; i < 500; i++ {
			s.Put(p, key(i), val(i))
		}
		s.Put(p, key(100), nil)
		// Crash: no Flush, no clean shutdown. Reopen from the device.
		s2, err := kvstore.Open(p, r.env, r.drv.BlockDev(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			v, ok, _ := s2.Get(p, key(i), nil)
			if i == 100 {
				if ok {
					t.Fatal("deleted key resurrected by recovery")
				}
				continue
			}
			if !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("recovered get %d: ok=%v", i, ok)
			}
		}
	})
}

func TestRecoveryDoesNotReplayFlushedRecords(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		cfg := smallCfg()
		s, _ := kvstore.Open(p, r.env, r.drv.BlockDev(0), cfg)
		s.Put(p, key(1), []byte("old"))
		s.Flush(p)
		s.WaitIdle(p)
		// A newer value for the same key goes through a second flush.
		s.Put(p, key(1), []byte("new"))
		s.Flush(p)
		s.WaitIdle(p)
		s2, err := kvstore.Open(p, r.env, r.drv.BlockDev(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		v, ok, _ := s2.Get(p, key(1), nil)
		if !ok || string(v) != "new" {
			t.Fatalf("stale value after reopen: %q ok=%v", v, ok)
		}
	})
}

// Model test: a long random mix of put/delete/get/scan stays equivalent to
// a plain map, across flushes and compactions.
func TestRandomOpsMatchModel(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		s, _ := kvstore.Open(p, r.env, r.drv.BlockDev(0), smallCfg())
		model := map[string]string{}
		rng := rand.New(rand.NewSource(99))
		for op := 0; op < 6000; op++ {
			k := key(rng.Intn(800))
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // put
				v := val(rng.Intn(1 << 20))
				s.Put(p, k, v)
				model[string(k)] = string(v)
			case 5: // delete
				s.Put(p, k, nil)
				delete(model, string(k))
			default: // get
				v, ok, err := s.Get(p, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, wok := model[string(k)]
				if ok != wok || (ok && string(v) != want) {
					t.Fatalf("op %d: get %q = %q,%v want %q,%v", op, k, v, ok, want, wok)
				}
			}
		}
		s.WaitIdle(p)
		for k, want := range model {
			v, ok, _ := s.Get(p, []byte(k), nil)
			if !ok || string(v) != want {
				t.Fatalf("final check %q: %q ok=%v", k, v, ok)
			}
		}
	})
}
