package minidb_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"bmstore/internal/apps/minidb"
	"bmstore/internal/host"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
)

type rig struct {
	env *sim.Env
	drv *host.Driver
}

func newRig(t *testing.T) *rig {
	t.Helper()
	env := sim.NewEnv(31)
	h := host.New(env, 768<<30, host.CentOS("3.10.0"))
	cfg := ssd.P4510("DB001")
	cfg.CapacityBytes = 8 << 30
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

func dbCfg() minidb.Config {
	cfg := minidb.DefaultConfig()
	cfg.PoolPages = 64 // tiny pool: exercise faults and no-steal overflow
	cfg.RedoBytes = 8 << 20
	cfg.CheckpointInterval = 200 * sim.Millisecond
	return cfg
}

func row(i int) []byte { return []byte(fmt.Sprintf("row-%d-%0100d", i, i*13)) }

func TestPutGetUpdate(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		db, err := minidb.Open(p, r.env, r.drv.BlockDev(0), dbCfg())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := db.Begin().Read(p, 42); ok {
			t.Fatal("ghost row")
		}
		for i := 0; i < 500; i++ {
			if err := db.Put(p, uint64(i), row(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 500; i++ {
			v, ok, err := db.Begin().Read(p, uint64(i))
			if err != nil || !ok || !bytes.Equal(v, row(i)) {
				t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
			}
		}
		db.Put(p, 7, []byte("updated"))
		if v, _, _ := db.Begin().Read(p, 7); string(v) != "updated" {
			t.Fatalf("update lost: %q", v)
		}
	})
}

// TestDBCopiesWhatItKeeps: Txn.Write and DB.Put keep their own copy of a
// row, so a caller may refill one row buffer per write, as the sysbench and
// TPC-C clients do. After every call the test scribbles over the buffer it
// passed, then reads every row back, inside the transaction and after it.
func TestDBCopiesWhatItKeeps(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		db, err := minidb.Open(p, r.env, r.drv.BlockDev(0), dbCfg())
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		scribble := func() {
			for i := range buf {
				buf[i] = '#'
			}
		}
		for i := 0; i < 300; i++ {
			buf = append(buf[:0], row(i)...)
			if err := db.Put(p, uint64(i), buf); err != nil {
				t.Fatal(err)
			}
			scribble()
		}
		tx := db.Begin()
		for i := 300; i < 400; i++ {
			buf = append(buf[:0], row(i)...)
			tx.Write(uint64(i), buf)
			scribble()
		}
		for i := 300; i < 400; i++ {
			if v, ok, _ := tx.Read(p, uint64(i)); !ok || !bytes.Equal(v, row(i)) {
				t.Fatalf("read-your-write %d: %q ok=%v", i, v, ok)
			}
		}
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			if v, ok, err := db.Begin().Read(p, uint64(i)); err != nil || !ok || !bytes.Equal(v, row(i)) {
				t.Fatalf("row %d: %q ok=%v err=%v", i, v, ok, err)
			}
		}
	})
}

func TestSplitsAndScan(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		db, err := minidb.Open(p, r.env, r.drv.BlockDev(0), dbCfg())
		if err != nil {
			t.Fatal(err)
		}
		// ~140-byte rows, >100 per 16K leaf: 20000 rows forces multi-level
		// splits and pool eviction (64-frame pool).
		const n = 20000
		for i := 0; i < n; i++ {
			k := uint64((i * 7919) % n) // non-sequential insert order
			if err := db.Put(p, k, row(int(k))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i += 997 {
			v, ok, err := db.Begin().Read(p, uint64(i))
			if err != nil || !ok || !bytes.Equal(v, row(i)) {
				t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
			}
		}
		rows, err := db.Begin().ReadRange(p, 1000, 50)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 50 {
			t.Fatalf("scan returned %d", len(rows))
		}
		for i, rw := range rows {
			if rw.Key != uint64(1000+i) {
				t.Fatalf("scan out of order at %d: key %d", i, rw.Key)
			}
		}
	})
}

func TestTransactionReadYourWrites(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		db, _ := minidb.Open(p, r.env, r.drv.BlockDev(0), dbCfg())
		db.Put(p, 1, []byte("committed"))
		tx := db.Begin()
		tx.Write(1, []byte("mine"))
		v, ok, _ := tx.Read(p, 1)
		if !ok || string(v) != "mine" {
			t.Fatalf("RYW broken: %q", v)
		}
		// Not yet visible elsewhere.
		v, _, _ = db.Begin().Read(p, 1)
		if string(v) != "committed" {
			t.Fatalf("uncommitted write leaked: %q", v)
		}
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		v, _, _ = db.Begin().Read(p, 1)
		if string(v) != "mine" {
			t.Fatalf("commit lost: %q", v)
		}
	})
}

func TestReopenAfterCheckpoint(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		cfg := dbCfg()
		db, _ := minidb.Open(p, r.env, r.drv.BlockDev(0), cfg)
		for i := 0; i < 3000; i++ {
			db.Put(p, uint64(i), row(i))
		}
		if err := db.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		db2, err := minidb.Open(p, r.env, r.drv.BlockDev(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i += 113 {
			v, ok, err := db2.Begin().Read(p, uint64(i))
			if err != nil || !ok || !bytes.Equal(v, row(i)) {
				t.Fatalf("reopen get %d: ok=%v err=%v", i, ok, err)
			}
		}
	})
}

func TestCrashRecoveryReplaysRedo(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		cfg := dbCfg()
		cfg.CheckpointInterval = sim.Second * 3600 // no periodic checkpoints
		db, _ := minidb.Open(p, r.env, r.drv.BlockDev(0), cfg)
		for i := 0; i < 800; i++ {
			db.Put(p, uint64(i), row(i))
		}
		db.Checkpoint(p)
		// Post-checkpoint updates live only in redo + pool.
		for i := 0; i < 800; i += 2 {
			db.Put(p, uint64(i), []byte(fmt.Sprintf("v2-%d", i)))
		}
		// Crash: reopen without any orderly shutdown.
		db2, err := minidb.Open(p, r.env, r.drv.BlockDev(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 800; i++ {
			v, ok, _ := db2.Begin().Read(p, uint64(i))
			if !ok {
				t.Fatalf("row %d lost", i)
			}
			if i%2 == 0 {
				if string(v) != fmt.Sprintf("v2-%d", i) {
					t.Fatalf("row %d stale: %q", i, v)
				}
			} else if !bytes.Equal(v, row(i)) {
				t.Fatalf("row %d corrupted", i)
			}
		}
	})
}

func TestConcurrentCommitsSerialize(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		db, _ := minidb.Open(p, r.env, r.drv.BlockDev(0), dbCfg())
		const writers = 8
		const per = 200
		var done []*sim.Event
		for w := 0; w < writers; w++ {
			w := w
			proc := r.env.Go(fmt.Sprintf("w%d", w), func(wp *sim.Proc) {
				for i := 0; i < per; i++ {
					tx := db.Begin()
					k := uint64(w*100000 + i)
					tx.Write(k, row(int(k)))
					tx.Write(k+50000, row(int(k)+1))
					if err := tx.Commit(wp); err != nil {
						t.Errorf("commit: %v", err)
					}
				}
			})
			done = append(done, proc.Done())
		}
		for _, ev := range done {
			p.Wait(ev)
		}
		for w := 0; w < writers; w++ {
			for i := 0; i < per; i += 37 {
				k := uint64(w*100000 + i)
				v, ok, _ := db.Begin().Read(p, k)
				if !ok || !bytes.Equal(v, row(int(k))) {
					t.Fatalf("writer %d key %d missing", w, i)
				}
			}
		}
		if db.Stats.Txns != writers*per {
			t.Fatalf("txn count %d", db.Stats.Txns)
		}
	})
}

// Model check: random ops with periodic checkpoints and a final crash
// reopen match a plain map, and after every operation the pool's running
// dirty-frame count (what eviction and pressure decide on) equals a recount.
func TestRandomOpsWithCheckpointsMatchModel(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		cfg := dbCfg()
		db, _ := minidb.Open(p, r.env, r.drv.BlockDev(0), cfg)
		model := map[uint64]string{}
		rng := rand.New(rand.NewSource(8))
		for op := 0; op < 5000; op++ {
			switch rng.Intn(10) {
			case 9:
				if rng.Intn(10) == 0 {
					db.Checkpoint(p)
				}
			case 6, 7, 8:
				k := uint64(rng.Intn(1500))
				v, ok, err := db.Begin().Read(p, k)
				if err != nil {
					t.Fatal(err)
				}
				want, wok := model[k]
				if ok != wok || (ok && string(v) != want) {
					t.Fatalf("op %d: get %d = %q,%v want %q,%v", op, k, v, ok, want, wok)
				}
			default:
				k := uint64(rng.Intn(1500))
				v := fmt.Sprintf("val-%d-%d", k, op)
				if err := db.Put(p, k, []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			}
			if tracked, counted := db.DirtyFrames(); tracked != counted {
				t.Fatalf("op %d: pool tracks %d dirty frames, a recount finds %d", op, tracked, counted)
			}
		}
		// Crash reopen: durability of every committed write.
		db2, err := minidb.Open(p, r.env, r.drv.BlockDev(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k, want := range model {
			v, ok, _ := db2.Begin().Read(p, k)
			if !ok || string(v) != want {
				t.Fatalf("after crash: key %d = %q,%v want %q", k, v, ok, want)
			}
		}
	})
}
