package kvstore

import (
	"bytes"
	"sort"
)

// memtable is the in-memory sorted write buffer. A sorted slice with
// binary-search insertion is ample at the few-MB sizes RocksDB uses before
// flushing.
type memtable struct {
	kvs   []KV
	bytes int
}

func newMemtable() *memtable { return &memtable{} }

// put stores its own copies of key and value; a nil or empty value is a
// tombstone. An update of the same length copies into the old value's
// storage, so a value's bytes may change whenever the caller parks: get
// returns a value for its caller to copy at once, and snapshot copies.
func (m *memtable) put(key, value []byte) {
	i := m.seek(key)
	if i < len(m.kvs) && bytes.Equal(m.kvs[i].Key, key) {
		old := m.kvs[i].Value
		if len(old) == len(value) {
			copy(old, value)
			return
		}
		m.bytes += len(value) - len(old)
		m.kvs[i].Value = append([]byte(nil), value...) // detach from the caller's buffer
		return
	}
	v := append([]byte(nil), value...)
	k := append([]byte(nil), key...) // detach likewise; only a new key is kept
	m.kvs = append(m.kvs, KV{})
	copy(m.kvs[i+1:], m.kvs[i:])
	m.kvs[i] = KV{Key: k, Value: v}
	m.bytes += len(k) + len(v) + 16
}

// get returns (value, present-in-this-table). A nil value with hit=true is
// a tombstone.
func (m *memtable) get(key []byte) ([]byte, bool) {
	i := m.seek(key)
	if i < len(m.kvs) && bytes.Equal(m.kvs[i].Key, key) {
		return m.kvs[i].Value, true
	}
	return nil, false
}

// sorted returns the table's content in key order.
func (m *memtable) sorted() []KV { return m.kvs }

// seek returns the index of the first key >= start.
func (m *memtable) seek(start []byte) int {
	return sort.Search(len(m.kvs), func(i int) bool {
		return bytes.Compare(m.kvs[i].Key, start) >= 0
	})
}

// iter positions a merge iterator at the first key >= start. It walks the
// table's own entries, so only a memtable that is never put to again — imm —
// may be walked across a park.
func (m *memtable) iter(start []byte) *mergeIter {
	return &mergeIter{kvs: m.kvs[m.seek(start):]}
}

// snapshot is iter over a copy of the entries, keys and values in one buffer
// of its own, so that later puts change nothing it holds: the active
// memtable's iterator for a scan that parks. It copies entries until limit
// of them are live (a negative limit copies all). A scan of limit results
// needs no entry past those, because the active memtable is the newest
// source, so nothing shadows its live entries.
func (m *memtable) snapshot(start []byte, limit int) *mergeIter {
	i := m.seek(start)
	j, size := i, 0
	for live := 0; j < len(m.kvs) && (limit < 0 || live < limit); j++ {
		size += len(m.kvs[j].Key) + len(m.kvs[j].Value)
		if m.kvs[j].Value != nil {
			live++
		}
	}
	kvs := make([]KV, j-i)
	buf := make([]byte, 0, size)
	for n, kv := range m.kvs[i:j] {
		buf = append(buf, kv.Key...)
		kvs[n].Key = buf[len(buf)-len(kv.Key) : len(buf) : len(buf)]
		if kv.Value != nil { // nil is a tombstone and stays one
			buf = append(buf, kv.Value...)
			kvs[n].Value = buf[len(buf)-len(kv.Value) : len(buf) : len(buf)]
		}
	}
	return &mergeIter{kvs: kvs}
}

// mergeIter walks a sorted KV slice; newer iterators win ties in
// mergeScan by argument order.
type mergeIter struct {
	kvs []KV
	pos int
}

func (it *mergeIter) peek() (KV, bool) {
	if it.pos >= len(it.kvs) {
		return KV{}, false
	}
	return it.kvs[it.pos], true
}

func (it *mergeIter) next() { it.pos++ }

// mergeScan merges iterators (newest first) dropping shadowed versions and
// tombstones, stopping after limit results.
func mergeScan(iters []*mergeIter, limit int) []KV {
	return mergeImpl(iters, limit, false)
}

// mergeScanAll merges everything, keeping tombstones (compaction must
// preserve deletions until the bottom level).
func mergeScanAll(iters []*mergeIter) []KV {
	return mergeImpl(iters, -1, true)
}

func mergeImpl(iters []*mergeIter, limit int, keepTombstones bool) []KV {
	var out []KV
	for {
		if limit >= 0 && len(out) >= limit {
			return out
		}
		best := -1
		var bestKV KV
		for i, it := range iters {
			kv, ok := it.peek()
			if !ok {
				continue
			}
			if best == -1 || bytes.Compare(kv.Key, bestKV.Key) < 0 {
				best, bestKV = i, kv
			}
		}
		if best == -1 {
			return out
		}
		// Consume this key from every iterator; the newest (lowest index)
		// version wins.
		for _, it := range iters {
			for {
				kv, ok := it.peek()
				if !ok || !bytes.Equal(kv.Key, bestKV.Key) {
					break
				}
				it.next()
			}
		}
		if bestKV.Value != nil || keepTombstones {
			out = append(out, bestKV)
		}
	}
}
