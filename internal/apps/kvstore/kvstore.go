// Package kvstore is a log-structured-merge key-value store in the shape
// of RocksDB, built directly on a host.BlockDevice: write-ahead log with
// group commit and LSN-based recovery, an in-memory memtable, sorted-string
// tables with block index and bloom filter, a persisted manifest, and
// leveled background compaction. The paper's YCSB/RocksDB experiments run
// against this engine so the full I/O pattern (WAL appends, flush bursts,
// compaction reads+writes, point lookups) crosses the simulated storage
// stack.
package kvstore

import (
	"bytes"
	"fmt"
	"sort"

	"bmstore/internal/apps/logring"
	"bmstore/internal/apps/pagebuf"
	"bmstore/internal/host"
	"bmstore/internal/sim"
)

// Config tunes the store.
type Config struct {
	MemtableBytes int // flush threshold
	WALBytes      uint64
}

// DefaultConfig mirrors a small RocksDB instance.
func DefaultConfig() Config {
	return Config{
		MemtableBytes: 4 << 20,
		WALBytes:      64 << 20,
	}
}

// The store's fixed shape, that of a small RocksDB instance.
const (
	l0CompactAt     = 4        // number of L0 tables that triggers compaction
	levelRatio      = 10       // size ratio between levels
	blockBytes      = 16 << 10 // SSTable block size
	bloomBitsPerKey = 10
	maxLevels       = 4
)

// Store is one LSM instance.
type Store struct {
	env *sim.Env
	dev host.BlockDevice
	cfg Config

	mem    *memtable
	imm    *memtable // memtable being flushed
	levels [][]*table

	wal    *logring.Log
	alloc  *allocator
	blocks pagebuf.List // point lookups' block buffers; scans and compaction keep theirs

	flushedLSN uint64 // highest LSN covered by flushed tables
	memMaxLSN  uint64 // highest LSN in the active memtable
	immMaxLSN  uint64

	flushBusy bool
	compBusy  bool
	flushWake *sim.Event // what Flush callers wait on, one pooled event per flush

	// bgErr is the first failure of a background flush, compaction or
	// manifest write, and it is sticky, as RocksDB's background error is:
	// the memtable whose flush failed stays readable as imm, and Flush and
	// every later Put return the error, since another flush would have no
	// room to keep a second immutable memtable.
	bgErr error

	// Stats counts logical operations and physical effects.
	Stats struct {
		Puts, Gets, Scans    uint64
		GetHitsMem           uint64
		BloomSkips           uint64
		Flushes, Compactions uint64
	}
}

// Open initialises (or recovers) a store on dev: it loads the manifest,
// reopens the live tables, and replays WAL records newer than the tables.
func Open(p *sim.Proc, env *sim.Env, dev host.BlockDevice, cfg Config) (*Store, error) {
	if blockBytes%dev.BlockSize() != 0 {
		return nil, fmt.Errorf("kvstore: block size %d not a multiple of device blocks", blockBytes)
	}
	walBlocks := cfg.WALBytes / uint64(dev.BlockSize())
	s := &Store{
		env: env, dev: dev, cfg: cfg,
		mem:    newMemtable(),
		levels: make([][]*table, maxLevels),
		alloc:  newAllocator(manifestBlocks+walBlocks, dev.CapacityBlocks()),
		blocks: pagebuf.New(blockBytes),
	}
	s.wal = logring.New(env, dev, "kv/wal", manifestBlocks, walBlocks)
	m, found, err := s.readManifest(p)
	if err != nil {
		return nil, err
	}
	if found {
		s.flushedLSN = m.FlushedLSN
		if err := s.loadTables(p, m); err != nil {
			return nil, err
		}
	}
	err = s.wal.Recover(p, s.flushedLSN, recordEnd, recordLSN, func(rec []byte) error {
		r := parseRecord(rec)
		s.mem.put(r.key, r.value)
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.memMaxLSN = s.wal.NextLSN() - 1
	return s, nil
}

// Put stores value under key, durable once Put returns (WAL committed). A nil
// value deletes key: it is written as a tombstone.
func (s *Store) Put(p *sim.Proc, key, value []byte) error {
	if s.bgErr != nil {
		return s.bgErr
	}
	s.Stats.Puts++
	lsn := s.wal.Append(func(batch []byte, lsn uint64) []byte { return appendRecord(batch, lsn, key, value) })
	if err := s.wal.Wait(p, lsn); err != nil {
		return err
	}
	s.mem.put(key, value)
	if lsn > s.memMaxLSN {
		s.memMaxLSN = lsn
	}
	if s.mem.bytes >= s.cfg.MemtableBytes && !s.flushBusy {
		s.startFlush()
	}
	return nil
}

// Get appends the newest value of key to dst and returns the result, in the
// manner of append: the value is the caller's copy, and the store keeps no
// reference to it or to key. ok is false, and dst comes back as it was, for
// a missing or deleted key.
func (s *Store) Get(p *sim.Proc, key, dst []byte) ([]byte, bool, error) {
	s.Stats.Gets++
	if v, hit := s.mem.get(key); hit {
		s.Stats.GetHitsMem++
		return append(dst, v...), v != nil, nil
	}
	if s.imm != nil {
		if v, hit := s.imm.get(key); hit {
			s.Stats.GetHitsMem++
			return append(dst, v...), v != nil, nil
		}
	}
	for lvl, tables := range s.levels {
		if lvl == 0 {
			// L0 tables overlap; newest (last appended) wins.
			for i := len(tables) - 1; i >= 0; i-- {
				v, hit, err := tables[i].get(p, key, dst)
				if err != nil || hit {
					return v, hit && len(v) > len(dst), err
				}
			}
			continue
		}
		// Deeper levels are sorted and non-overlapping.
		i := sort.Search(len(tables), func(i int) bool {
			return bytes.Compare(tables[i].maxKey, key) >= 0
		})
		if i < len(tables) && bytes.Compare(tables[i].minKey, key) <= 0 {
			v, hit, err := tables[i].get(p, key, dst)
			if err != nil || hit {
				return v, hit && len(v) > len(dst), err
			}
		}
	}
	return dst, false, nil
}

// Scan returns up to limit key/value pairs with key >= start, merged
// across the memtables and every level (the YCSB workload E pattern).
func (s *Store) Scan(p *sim.Proc, start []byte, limit int) ([]KV, error) {
	s.Stats.Scans++
	// The active memtable is copied before the first table read parks: a
	// Put that lands meanwhile shifts its entries and may rewrite a value in
	// place. imm is never put to, so its entries are walked where they lie.
	var iters []*mergeIter
	iters = append(iters, s.mem.snapshot(start, limit))
	if s.imm != nil {
		iters = append(iters, s.imm.iter(start))
	}
	for _, tables := range s.levels {
		for i := len(tables) - 1; i >= 0; i-- {
			t := tables[i]
			if bytes.Compare(t.maxKey, start) < 0 {
				continue
			}
			it, err := t.iter(p, start)
			if err != nil {
				return nil, err
			}
			iters = append(iters, it)
		}
	}
	return mergeScan(iters, limit), nil
}

// Flush forces the memtable to disk and waits for it. It returns the
// store's background error, if a flush or compaction has failed.
func (s *Store) Flush(p *sim.Proc) error {
	if s.bgErr != nil {
		return s.bgErr
	}
	if err := s.wal.Sync(p); err != nil {
		return err
	}
	if err := s.dev.Flush(p); err != nil {
		return err
	}
	if s.mem.bytes > 0 && !s.flushBusy {
		s.startFlush()
	}
	for s.flushBusy {
		if s.flushWake == nil {
			s.flushWake = s.env.PooledEvent()
		}
		p.Wait(s.flushWake)
	}
	return s.bgErr
}

// WaitIdle blocks until background flush and compaction settle (tests and
// orderly shutdown).
func (s *Store) WaitIdle(p *sim.Proc) {
	for s.flushBusy || s.compBusy {
		p.Sleep(100 * sim.Microsecond)
	}
}

// startFlush swaps the memtable and writes it out in the background.
func (s *Store) startFlush() {
	s.flushBusy = true
	s.imm = s.mem
	s.immMaxLSN = s.memMaxLSN
	s.mem = newMemtable()
	imm := s.imm
	s.env.Go("kv/flush", func(fp *sim.Proc) {
		t, err := s.writeTable(fp, imm.sorted())
		if err != nil {
			// imm stays: its keys are nowhere else until the WAL is replayed.
			s.fail(fmt.Errorf("kvstore: flush: %w", err))
		} else {
			if t != nil {
				s.levels[0] = append(s.levels[0], t)
				s.flushedLSN = s.immMaxLSN
				s.Stats.Flushes++
				if err := s.writeManifest(fp); err != nil {
					s.fail(fmt.Errorf("kvstore: manifest: %w", err))
				}
			}
			s.imm = nil
		}
		s.flushBusy = false
		if ev := s.flushWake; ev != nil {
			s.flushWake = nil
			ev.Trigger(nil)
		}
		if len(s.levels[0]) >= l0CompactAt && !s.compBusy {
			s.startCompaction()
		}
	})
}

// startCompaction merges overflowing levels downward in the background.
func (s *Store) startCompaction() {
	s.compBusy = true
	s.env.Go("kv/compact", func(cp *sim.Proc) {
		defer func() { s.compBusy = false }()
		for lvl := 0; lvl < maxLevels-1; lvl++ {
			if !s.levelOverflow(lvl) {
				continue
			}
			if err := s.compactLevel(cp, lvl); err != nil {
				s.fail(fmt.Errorf("kvstore: compaction: %w", err))
				return
			}
			s.Stats.Compactions++
		}
		if err := s.writeManifest(cp); err != nil {
			s.fail(fmt.Errorf("kvstore: manifest: %w", err))
		}
	})
}

// fail records err as the store's background error unless one is set.
func (s *Store) fail(err error) {
	if s.bgErr == nil {
		s.bgErr = err
	}
}

func (s *Store) levelOverflow(lvl int) bool {
	if lvl == 0 {
		return len(s.levels[0]) >= l0CompactAt
	}
	budget := s.cfg.MemtableBytes
	for i := 0; i < lvl; i++ {
		budget *= levelRatio
	}
	var size int
	for _, t := range s.levels[lvl] {
		size += t.dataBytes
	}
	return size > budget
}

// compactLevel merges level lvl into lvl+1, charging all the read and
// write I/O to the device.
func (s *Store) compactLevel(p *sim.Proc, lvl int) error {
	src := s.levels[lvl]
	dst := s.levels[lvl+1]
	if len(src) == 0 {
		return nil
	}
	var iters []*mergeIter
	for i := len(src) - 1; i >= 0; i-- {
		it, err := src[i].iter(p, nil)
		if err != nil {
			return err
		}
		iters = append(iters, it)
	}
	for i := len(dst) - 1; i >= 0; i-- {
		it, err := dst[i].iter(p, nil)
		if err != nil {
			return err
		}
		iters = append(iters, it)
	}
	merged := mergeScanAll(iters)
	if lvl+1 == maxLevels-1 {
		kept := merged[:0]
		for _, kv := range merged {
			if kv.Value != nil {
				kept = append(kept, kv)
			}
		}
		merged = kept
	}
	nt, err := s.writeTable(p, merged)
	if err != nil {
		return err
	}
	// Free the replaced tables after a grace period: concurrent readers
	// that picked a table pointer before the swap may still be reading its
	// blocks (real LSMs hold refcounts; a delay bounds the same hazard).
	old := append(append([]*table{}, src...), dst...)
	s.env.Schedule(50*sim.Millisecond, func() {
		for _, t := range old {
			s.alloc.release(t.baseBlock, t.blocks)
		}
	})
	s.levels[lvl] = nil
	if nt != nil {
		s.levels[lvl+1] = []*table{nt}
	} else {
		s.levels[lvl+1] = nil
	}
	return nil
}

// KV is one key/value pair.
type KV struct {
	Key   []byte
	Value []byte
}
