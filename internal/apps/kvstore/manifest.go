package kvstore

import (
	"encoding/json"
	"fmt"

	"bmstore/internal/apps/logring"
	"bmstore/internal/sim"
)

// The manifest occupies a fixed region at the front of the device (like
// RocksDB's MANIFEST/CURRENT pair): a JSON document in a CRC frame
// (logring.PutFrame), rewritten atomically-enough on every flush and
// compaction. It records which LSN the tables already cover and where every
// live table lives.
const (
	manifestMagic  = 0xB3570125
	manifestBlocks = 128 // 512 KB region
)

// manifest is the persisted store state.
type manifest struct {
	FlushedLSN uint64
	Tables     []tableDesc
}

// tableDesc locates one SSTable on disk.
type tableDesc struct {
	Level       int
	BaseBlock   uint64
	Blocks      uint64
	NDataBlocks int
	Entries     int
	DataBytes   int
}

// writeManifest persists the current levels + flushed LSN.
func (s *Store) writeManifest(p *sim.Proc) error {
	var m manifest
	m.FlushedLSN = s.flushedLSN
	for lvl, tables := range s.levels {
		for _, t := range tables {
			m.Tables = append(m.Tables, tableDesc{
				Level: lvl, BaseBlock: t.baseBlock, Blocks: t.blocks,
				NDataBlocks: t.nDataBlocks, Entries: t.entries, DataBytes: t.dataBytes,
			})
		}
	}
	doc, err := json.Marshal(m)
	if err != nil {
		return err
	}
	bs := s.dev.BlockSize()
	if logring.FrameHeader+len(doc) > manifestBlocks*bs {
		return fmt.Errorf("kvstore: manifest too large (%d bytes)", len(doc))
	}
	buf := make([]byte, manifestBlocks*bs)
	used := (logring.PutFrame(buf, manifestMagic, 0, doc) + bs - 1) / bs
	if err := s.dev.WriteAt(p, 0, uint32(used), buf[:used*bs]); err != nil {
		return err
	}
	return s.dev.Flush(p)
}

// readManifest loads the persisted state; ok is false on a fresh device.
func (s *Store) readManifest(p *sim.Proc) (manifest, bool, error) {
	bs := s.dev.BlockSize()
	head := make([]byte, bs)
	if err := s.dev.ReadAt(p, 0, 1, head); err != nil {
		return manifest{}, false, err
	}
	n := logring.FrameLen(head, manifestMagic)
	if n == 0 || n > manifestBlocks*bs {
		return manifest{}, false, nil
	}
	blocks := (n + bs - 1) / bs
	buf := make([]byte, blocks*bs)
	if err := s.dev.ReadAt(p, 0, uint32(blocks), buf); err != nil {
		return manifest{}, false, err
	}
	doc, _, ok := logring.ReadFrame(buf, manifestMagic)
	if !ok {
		return manifest{}, false, nil
	}
	var m manifest
	if err := json.Unmarshal(doc, &m); err != nil {
		return manifest{}, false, nil
	}
	return m, true, nil
}

// loadTables reconstructs table objects (index + bloom from their meta
// blocks on disk).
func (s *Store) loadTables(p *sim.Proc, m manifest) error {
	for _, d := range m.Tables {
		if d.Level < 0 || d.Level >= len(s.levels) {
			return fmt.Errorf("kvstore: manifest level %d out of range", d.Level)
		}
		t, err := s.openTable(p, d)
		if err != nil {
			return err
		}
		s.levels[d.Level] = append(s.levels[d.Level], t)
		s.alloc.reserve(d.BaseBlock, d.Blocks)
	}
	return nil
}

// reserve marks a block run as in use (tables loaded from the manifest).
func (a *allocator) reserve(base, n uint64) {
	if base+n > a.next {
		a.next = base + n
	}
}
