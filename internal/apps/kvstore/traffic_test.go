package kvstore_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"bmstore/internal/apps/kvstore"
	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
)

// recorder is a host.BlockDevice over dev that folds every call the store
// makes — (op, lba, blocks, payload), in call order — into h, a SHA-256. A
// write's payload is what the store handed over, noted at submission; a
// read's is what came back, noted at completion.
type recorder struct {
	host.Parking
	dev host.BlockDevice
	h   hash.Hash
}

func newRecorder(dev host.BlockDevice, h hash.Hash) *recorder {
	r := &recorder{dev: dev, h: h}
	r.Parking = host.NewParking(r)
	return r
}

func (r *recorder) BlockSize() int         { return r.dev.BlockSize() }
func (r *recorder) CapacityBlocks() uint64 { return r.dev.CapacityBlocks() }
func (r *recorder) PerIOCPU() sim.Time     { return r.dev.PerIOCPU() }

func (r *recorder) note(op byte, lba uint64, blocks uint32, payload []byte) {
	var hdr [13]byte
	hdr[0] = op
	binary.LittleEndian.PutUint64(hdr[1:], lba)
	binary.LittleEndian.PutUint32(hdr[9:], blocks)
	r.h.Write(hdr[:])
	r.h.Write(payload)
}

func (r *recorder) Submit(op uint8, lba uint64, blocks uint32, buf []byte, done func(host.IOOutcome)) {
	switch op {
	case nvme.IORead:
		read := done
		done = func(oc host.IOOutcome) {
			r.note('R', lba, blocks, buf)
			read(oc)
		}
	case nvme.IOWrite:
		r.note('W', lba, blocks, buf)
	default:
		r.note('F', 0, 0, nil)
	}
	r.dev.Submit(op, lba, blocks, buf, done)
}

// kvstoreTrafficSHA256 is the digest of the script below, taken on the
// commit before the store stopped re-copying records it already held
// (PR 16's parent). The store may change how it builds WAL batches, table
// blocks and lookups in memory; the device must see the same bytes in the
// same order.
const kvstoreTrafficSHA256 = "e181755941f8cd39baf73aa8a1241a569c29551026415d89b05a94a0af6d5bb9"

// TestDeviceTrafficUnchanged drives one seeded script over everything that
// produces device I/O — concurrent writers sharing WAL batches, deletes,
// memtable flushes, compaction, point reads and scans served from tables,
// and a crash reopen that reloads the manifest and tables and replays the
// WAL — and pins the hash of the traffic.
func TestDeviceTrafficUnchanged(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		cfg := smallCfg()
		rec := newRecorder(r.drv.BlockDev(0), sha256.New())
		s, err := kvstore.Open(p, r.env, rec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		const keys = 1500
		model := make([][]byte, keys) // nil = absent

		// Four writers share group commits; each owns a residue class of the
		// key space, so the model needs no ordering between them.
		var done []*sim.Event
		for w := 0; w < 4; w++ {
			w := w
			wrng := rand.New(rand.NewSource(int64(1600 + w)))
			done = append(done, r.env.Go(fmt.Sprintf("w%d", w), func(wp *sim.Proc) {
				for i := 0; i < 2500; i++ {
					k := wrng.Intn(keys/4)*4 + w
					if wrng.Intn(8) == 0 {
						if err := s.Put(wp, key(k), nil); err != nil {
							t.Errorf("delete: %v", err)
						}
						model[k] = nil
						continue
					}
					v := make([]byte, 20+wrng.Intn(300))
					wrng.Read(v)
					if err := s.Put(wp, key(k), v); err != nil {
						t.Errorf("put: %v", err)
					}
					model[k] = v
				}
			}).Done())
		}
		for _, ev := range done {
			p.Wait(ev)
		}
		if err := s.Flush(p); err != nil {
			t.Fatal(err)
		}
		s.WaitIdle(p)
		if s.Stats.Flushes == 0 || s.Stats.Compactions == 0 {
			t.Fatalf("script ran %d flushes and %d compactions; wants both", s.Stats.Flushes, s.Stats.Compactions)
		}

		check := func(st *kvstore.Store, stage string) {
			for k := 0; k < keys; k += 3 {
				v, ok, err := st.Get(p, key(k), nil)
				if err != nil || ok != (model[k] != nil) || !bytes.Equal(v, model[k]) {
					t.Fatalf("%s: get %d: ok=%v err=%v", stage, k, ok, err)
				}
			}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 20; i++ {
				from := rng.Intn(keys)
				got, err := st.Scan(p, key(from), 1+rng.Intn(30))
				if err != nil {
					t.Fatalf("%s: scan: %v", stage, err)
				}
				k := from
				for _, kv := range got {
					for k < keys && model[k] == nil {
						k++
					}
					if k == keys || !bytes.Equal(kv.Key, key(k)) || !bytes.Equal(kv.Value, model[k]) {
						t.Fatalf("%s: scan from %d returned %q, model is at key %d", stage, from, kv.Key, k)
					}
					k++
				}
			}
		}
		check(s, "after compaction")

		// A tail that lives only in the WAL and the memtable, then a crash.
		rng := rand.New(rand.NewSource(1699))
		for i := 0; i < 150; i++ {
			k := rng.Intn(keys)
			if i%10 == 9 {
				s.Put(p, key(k), nil)
				model[k] = nil
				continue
			}
			v := val(rng.Intn(1 << 20))
			s.Put(p, key(k), v)
			model[k] = v
		}
		s2, err := kvstore.Open(p, r.env, newRecorder(r.drv.BlockDev(1), rec.h), cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(s2, "after crash")

		if got := hex.EncodeToString(rec.h.Sum(nil)); got != kvstoreTrafficSHA256 {
			t.Fatalf("device traffic digest %s, want %s", got, kvstoreTrafficSHA256)
		}
	})
}
