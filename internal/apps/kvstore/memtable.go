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
// tombstone.
func (m *memtable) put(key, value []byte) {
	i := sort.Search(len(m.kvs), func(i int) bool {
		return bytes.Compare(m.kvs[i].Key, key) >= 0
	})
	v := append([]byte(nil), value...) // detach from the caller's buffer
	if i < len(m.kvs) && bytes.Equal(m.kvs[i].Key, key) {
		m.bytes += len(v) - len(m.kvs[i].Value)
		m.kvs[i].Value = v
		return
	}
	k := append([]byte(nil), key...) // detach likewise; only a new key is kept
	m.kvs = append(m.kvs, KV{})
	copy(m.kvs[i+1:], m.kvs[i:])
	m.kvs[i] = KV{Key: k, Value: v}
	m.bytes += len(k) + len(v) + 16
}

// get returns (value, present-in-this-table). A nil value with hit=true is
// a tombstone.
func (m *memtable) get(key []byte) ([]byte, bool) {
	i := sort.Search(len(m.kvs), func(i int) bool {
		return bytes.Compare(m.kvs[i].Key, key) >= 0
	})
	if i < len(m.kvs) && bytes.Equal(m.kvs[i].Key, key) {
		return m.kvs[i].Value, true
	}
	return nil, false
}

// sorted returns the table's content in key order.
func (m *memtable) sorted() []KV { return m.kvs }

// iter positions a merge iterator at the first key >= start.
func (m *memtable) iter(start []byte) *mergeIter {
	i := 0
	if start != nil {
		i = sort.Search(len(m.kvs), func(i int) bool {
			return bytes.Compare(m.kvs[i].Key, start) >= 0
		})
	}
	return &mergeIter{kvs: m.kvs[i:]}
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
