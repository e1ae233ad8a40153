package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"bmstore/internal/sim"
)

// table is one sorted-string table on disk:
//
//	[data blocks][index block(s)][bloom block(s)][footer block]
//
// Data blocks hold length-prefixed KV records; the index holds the first
// key of each data block; the footer records the geometry. All metadata is
// cached in memory after the table is written or opened, so reads cost one
// data-block I/O after a bloom/index consult — the RocksDB steady state
// with table/filter caches warm.
type table struct {
	s         *Store
	baseBlock uint64
	blocks    uint64
	dataBytes int

	minKey, maxKey []byte
	blockFirstKey  [][]byte // index: first key per data block
	nDataBlocks    int
	bloom          bloomFilter
	entries        int
}

// writeTable persists sorted kvs as one table and charges the device I/O.
// Returns nil for an empty input.
func (s *Store) writeTable(p *sim.Proc, kvs []KV) (*table, error) {
	if len(kvs) == 0 {
		return nil, nil
	}
	bs := blockBytes
	t := &table{s: s}

	// Build the table image in one buffer, each record encoded where it
	// will be written from: data blocks zero-padded to bs, then the index
	// and bloom filter. The capacity is a guess (records, plus a sixteenth
	// for padding and metadata); append makes up any shortfall.
	var recBytes int
	for _, kv := range kvs {
		recBytes += recordLen(kv.Key, kv.Value)
	}
	all := make([]byte, 0, recBytes+recBytes/16+4*bs)
	padBlock := func() {
		if fill := len(all) % bs; fill > 0 {
			all = append(all, make([]byte, bs-fill)...)
		}
	}
	t.bloom = newBloom(len(kvs))
	for _, kv := range kvs {
		n := recordLen(kv.Key, kv.Value)
		if n > bs {
			return nil, fmt.Errorf("kvstore: record larger than table block (%d > %d)", n, bs)
		}
		if len(all)%bs+n > bs {
			padBlock()
		}
		if len(all)%bs == 0 {
			first := append([]byte(nil), kv.Key...) // detach: kv.Key may alias a block of a table being compacted
			t.blockFirstKey = append(t.blockFirstKey, first)
		}
		all = appendRecord(all, 0, kv.Key, kv.Value)
		t.bloom.add(kv.Key)
	}
	padBlock()
	t.dataBytes = recBytes
	t.nDataBlocks = len(all) / bs
	t.entries = len(kvs)
	t.minKey = append([]byte(nil), kvs[0].Key...)          // detach, as above
	t.maxKey = append([]byte(nil), kvs[len(kvs)-1].Key...) // detach, as above

	// Index + bloom serialised after the data (read back only on open).
	all = appendMeta(all, t)
	padBlock()

	devBS := s.dev.BlockSize()
	totalDevBlocks := uint64(len(all) / devBS)
	base, err := s.alloc.alloc(totalDevBlocks)
	if err != nil {
		return nil, err
	}
	t.baseBlock = base
	t.blocks = totalDevBlocks

	// Write sequentially in 256K chunks (compaction/flush I/O pattern).
	const chunk = 256 << 10
	for off := 0; off < len(all); off += chunk {
		end := min(off+chunk, len(all))
		lba := base + uint64(off/devBS)
		if err := s.dev.WriteAt(p, lba, uint32((end-off)/devBS), all[off:end]); err != nil {
			s.alloc.release(base, totalDevBlocks)
			return nil, err
		}
	}
	if err := s.dev.Flush(p); err != nil {
		s.alloc.release(base, totalDevBlocks)
		return nil, err
	}
	return t, nil
}

// appendMeta serialises the index and bloom filter onto the end of b.
func appendMeta(b []byte, t *table) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.blockFirstKey)))
	for _, k := range t.blockFirstKey {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(k)))
		b = append(b, k...)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.bloom.bits)))
	b = append(b, t.bloom.bits...)
	return binary.LittleEndian.AppendUint32(b, uint32(t.bloom.k))
}

// readDataBlock fetches data block i (one table block) from the device into
// a buffer of its own, which range scans and compaction keep: the records
// decodeBlock finds alias it.
func (t *table) readDataBlock(p *sim.Proc, i int) ([]byte, error) {
	buf := make([]byte, blockBytes)
	if err := t.readBlock(p, i, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readBlock reads data block i into buf (blockBytes long).
func (t *table) readBlock(p *sim.Proc, i int, buf []byte) error {
	perTB := uint64(blockBytes / t.s.dev.BlockSize())
	return t.s.dev.ReadAt(p, t.baseBlock+uint64(i)*perTB, uint32(perTB), buf)
}

// get does a point lookup: bloom check, index search, one block read. On a
// hit it returns the value appended to dst (a tombstone appends nothing).
// The block is read into one of the store's recycled buffers, which goes
// back once the value is copied out. Like every recycled buffer, it is
// fully overwritten by the read only on a rig that captures payload bytes,
// as application rigs do.
func (t *table) get(p *sim.Proc, key, dst []byte) ([]byte, bool, error) {
	if bytes.Compare(key, t.minKey) < 0 || bytes.Compare(key, t.maxKey) > 0 {
		return dst, false, nil
	}
	if !t.bloom.mayContain(key) {
		t.s.Stats.BloomSkips++
		return dst, false, nil
	}
	i := sort.Search(len(t.blockFirstKey), func(i int) bool {
		return bytes.Compare(t.blockFirstKey[i], key) > 0
	}) - 1
	if i < 0 {
		return dst, false, nil
	}
	blk := t.s.blocks.Get()
	defer t.s.blocks.Put(blk)
	if err := t.readBlock(p, i, blk); err != nil {
		return dst, false, err
	}
	// Walk the block's records where they lie.
	for off := 0; ; {
		rec, end, ok := nextRecord(blk, off)
		if !ok {
			return dst, false, nil
		}
		if c := bytes.Compare(rec.key, key); c == 0 {
			return append(dst, rec.value...), true, nil
		} else if c > 0 {
			return dst, false, nil
		}
		off = end
	}
}

// iter reads the table from the block containing start onward into a merge
// iterator (range scans and compaction both pay the real block reads).
func (t *table) iter(p *sim.Proc, start []byte) (*mergeIter, error) {
	first := 0
	if start != nil {
		first = sort.Search(len(t.blockFirstKey), func(i int) bool {
			return bytes.Compare(t.blockFirstKey[i], start) > 0
		}) - 1
		if first < 0 {
			first = 0
		}
	}
	var kvs []KV
	for i := first; i < t.nDataBlocks; i++ {
		blk, err := t.readDataBlock(p, i)
		if err != nil {
			return nil, err
		}
		for _, kv := range decodeBlock(blk) {
			if start != nil && bytes.Compare(kv.Key, start) < 0 {
				continue
			}
			kvs = append(kvs, kv)
		}
	}
	return &mergeIter{kvs: kvs}, nil
}

// decodeBlock parses the records of one data block (same CRC-framed record
// format as the WAL, with LSN 0). The keys and values alias b.
func decodeBlock(b []byte) []KV {
	var out []KV
	for off := 0; ; {
		rec, end, ok := nextRecord(b, off)
		if !ok {
			return out
		}
		if out == nil {
			// Records of one block are of a size: the first predicts the count.
			out = make([]KV, 0, len(b)/end+1)
		}
		out = append(out, KV{Key: rec.key, Value: rec.value})
		off = end
	}
}

// openTable reconstructs a table from its manifest descriptor by reading
// the metadata blocks (index, bloom) back from the device.
func (s *Store) openTable(p *sim.Proc, d tableDesc) (*table, error) {
	bs := blockBytes
	devBS := s.dev.BlockSize()
	perTB := uint64(bs / devBS)
	dataDev := uint64(d.NDataBlocks) * perTB
	metaDev := d.Blocks - dataDev
	if metaDev == 0 || dataDev > d.Blocks {
		return nil, fmt.Errorf("kvstore: corrupt table descriptor %+v", d)
	}
	meta := make([]byte, metaDev*uint64(devBS))
	if err := s.dev.ReadAt(p, d.BaseBlock+dataDev, uint32(metaDev), meta); err != nil {
		return nil, err
	}
	t := &table{
		s: s, baseBlock: d.BaseBlock, blocks: d.Blocks,
		dataBytes: d.DataBytes, nDataBlocks: d.NDataBlocks, entries: d.Entries,
	}
	if err := decodeMeta(t, meta); err != nil {
		return nil, err
	}
	if len(t.blockFirstKey) > 0 {
		t.minKey = t.blockFirstKey[0]
		// Recover maxKey from the last data block.
		blk, err := t.readDataBlock(p, t.nDataBlocks-1)
		if err != nil {
			return nil, err
		}
		kvs := decodeBlock(blk)
		if len(kvs) > 0 {
			t.maxKey = append([]byte(nil), kvs[len(kvs)-1].Key...) // detach from blk
		}
	}
	return t, nil
}

// decodeMeta is the inverse of encodeMeta.
func decodeMeta(t *table, b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("kvstore: short table meta")
	}
	n := int(binary.LittleEndian.Uint32(b))
	off := 4
	for i := 0; i < n; i++ {
		if off+4 > len(b) {
			return fmt.Errorf("kvstore: truncated table index")
		}
		kl := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if off+kl > len(b) {
			return fmt.Errorf("kvstore: truncated index key")
		}
		t.blockFirstKey = append(t.blockFirstKey, append([]byte(nil), b[off:off+kl]...)) // detach from the meta read buffer
		off += kl
	}
	if off+4 > len(b) {
		return fmt.Errorf("kvstore: truncated bloom length")
	}
	bl := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if off+bl+4 > len(b) {
		return fmt.Errorf("kvstore: truncated bloom bits")
	}
	t.bloom.bits = append([]byte(nil), b[off:off+bl]...) // detach from the meta read buffer
	off += bl
	t.bloom.k = int(binary.LittleEndian.Uint32(b[off:]))
	return nil
}

// bloomFilter is a classic k-hash bloom filter over FNV-derived hashes.
type bloomFilter struct {
	bits []byte
	k    int
}

// newBloom sizes a filter for n keys at bloomBitsPerKey bits each.
func newBloom(n int) bloomFilter {
	nBits := max(n*bloomBitsPerKey, 64)
	return bloomFilter{bits: make([]byte, (nBits+7)/8), k: bloomBitsPerKey * 69 / 100} // ln2 * bits per key
}

func bloomHash(key []byte) (uint32, uint32) {
	h := fnv.New64a()
	h.Write(key)
	v := h.Sum64()
	return uint32(v), uint32(v >> 32)
}

func (f bloomFilter) add(key []byte) {
	h1, h2 := bloomHash(key)
	n := uint32(len(f.bits) * 8)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint32(i)*h2) % n
		f.bits[bit/8] |= 1 << (bit % 8)
	}
}

func (f bloomFilter) mayContain(key []byte) bool {
	if len(f.bits) == 0 {
		return true
	}
	h1, h2 := bloomHash(key)
	n := uint32(len(f.bits) * 8)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint32(i)*h2) % n
		if f.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}
