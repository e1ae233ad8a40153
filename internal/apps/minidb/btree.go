package minidb

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"bmstore/internal/sim"
)

// Clustered B+tree over uint64 keys and variable-length rows.
//
// Page layout (leaf):   u8 kind | u16 n | n * (u64 key, u16 len) dir |
// row payloads packed from the end.
//
// Page layout (internal): u8 kind | u16 n | n * (u64 sepKey, u32 child).
// child[i] covers keys < sepKey[i]; the last child covers the rest, so an
// internal node stores n separators and n+1 children (the final child id
// rides after the array).
//
// Ownership rule: the engine owns its bytes, and what crosses its API is
// copied. A page image is copied once per device crossing and encoded once
// per image consumed.
//
//   - Coming in, pager.fault reads a page into a buffer from the pager's free
//     list, and decodeNode turns it into a node. A leaf owns that buffer
//     (leafNode.buf) and its rows are sub-slices of it: no row is copied. An
//     internal node copies its words out, and its buffer goes back at once.
//   - While resident, the decoded node is the page. put mutates it and marks
//     the frame dirty; nothing is re-encoded. put never keeps the slice it is
//     given: a same-length update copies into the row's existing bytes, and
//     anything else keeps a fresh copy. So a row's bytes may be rewritten, and
//     the buffer they lie in recycled, whenever the caller parks: get and scan
//     hand rows only to callers that copy them before they park (Txn.Read and
//     Txn.ReadRange copy into the Txn's arena, scan row by row as it goes).
//   - Going out, frame.image encodes the node straight into the buffer the
//     device write is issued from — the checkpoint's journal blob, or a
//     free-list buffer in writeback — once per image written. Only dirty
//     frames are ever written, and eviction takes only clean ones, so giving
//     an evicted leaf back, with its buffer and entry slice, loses nothing.
//   - splitLeaf is the one place a leaf is held across a park: making room
//     for the new page can evict the left one, whose re-fault parks. It
//     detaches the leaf from its frame first, so that eviction gives back
//     neither the leaf nor its buffer, and it gives the right half a buffer
//     of its own.
const (
	nodeLeaf     = 1
	nodeInternal = 2
)

// maxLeafPayload leaves room for the header and entry directory.
const maxLeafPayload = PageSize - 64

// leafDirEntry is the directory cost of one row: u64 key + u16 length.
const leafDirEntry = 10

type leafEntry struct {
	key uint64
	row []byte
}

type leafNode struct {
	entries []leafEntry
	// size is the directory plus payload bytes the entries encode to,
	// maintained by put and splitLeaf.
	size int
	// buf is the page buffer the leaf owns, which rows decoded or split into
	// it alias (nil for the empty root a new database starts with). The
	// pager takes it back with the leaf on eviction.
	buf []byte
}

type internalNode struct {
	seps     []uint64
	children []pageID // len(seps)+1
}

// decodeNode parses a page image. A leaf is decoded into reuse, an empty
// leaf whose entry slice it reuses, or into a new one if reuse is nil; the
// leaf's rows alias data, which becomes its buf, and the caller must not
// write to data afterwards.
func decodeNode(data []byte, reuse *leafNode) (any, error) {
	if len(data) != PageSize {
		return nil, fmt.Errorf("minidb: corrupt page: %d bytes", len(data))
	}
	n := int(binary.LittleEndian.Uint16(data[1:]))
	switch data[0] {
	case nodeLeaf:
		dirEnd := 3 + leafDirEntry*n
		if dirEnd > PageSize {
			return nil, fmt.Errorf("minidb: corrupt page: leaf directory of %d rows", n)
		}
		ln := reuse
		if ln == nil {
			ln = &leafNode{}
		}
		ln.entries = slices.Grow(ln.entries[:0], n)[:n]
		ln.buf = data
		off := PageSize
		for i := range ln.entries {
			dir := 3 + leafDirEntry*i
			l := int(binary.LittleEndian.Uint16(data[dir+8:]))
			if off-l < dirEnd {
				return nil, fmt.Errorf("minidb: corrupt page: leaf row %d of %d bytes overruns the directory", i, l)
			}
			off -= l
			ln.entries[i] = leafEntry{key: binary.LittleEndian.Uint64(data[dir:]), row: data[off : off+l : off+l]}
		}
		ln.size = dirEnd - 3 + PageSize - off
		return ln, nil
	case nodeInternal:
		if 3+12*n+4 > PageSize {
			return nil, fmt.Errorf("minidb: corrupt page: internal node of %d separators", n)
		}
		in := &internalNode{seps: make([]uint64, n), children: make([]pageID, n+1)}
		off := 3
		for i := range in.seps {
			in.seps[i] = binary.LittleEndian.Uint64(data[off:])
			in.children[i] = pageID(binary.LittleEndian.Uint32(data[off+8:]))
			off += 12
		}
		in.children[n] = pageID(binary.LittleEndian.Uint32(data[off:]))
		return in, nil
	default:
		return nil, fmt.Errorf("minidb: corrupt page: unknown node kind %d", data[0])
	}
}

// encode writes the leaf's page image into data, whatever data held.
func (ln *leafNode) encode(data []byte) {
	data[0] = nodeLeaf
	binary.LittleEndian.PutUint16(data[1:], uint16(len(ln.entries)))
	dir := 3
	off := PageSize
	for _, e := range ln.entries {
		binary.LittleEndian.PutUint64(data[dir:], e.key)
		binary.LittleEndian.PutUint16(data[dir+8:], uint16(len(e.row)))
		dir += leafDirEntry
		off -= len(e.row)
		copy(data[off:], e.row)
	}
	clear(data[dir:off])
}

// search returns the position of key, or where it would be inserted.
func (ln *leafNode) search(key uint64) (int, bool) {
	return slices.BinarySearchFunc(ln.entries, key, func(e leafEntry, key uint64) int {
		return cmp.Compare(e.key, key)
	})
}

func (in *internalNode) encode(data []byte) {
	data[0] = nodeInternal
	binary.LittleEndian.PutUint16(data[1:], uint16(len(in.seps)))
	off := 3
	for i, s := range in.seps {
		binary.LittleEndian.PutUint64(data[off:], s)
		binary.LittleEndian.PutUint32(data[off+8:], uint32(in.children[i]))
		off += 12
	}
	binary.LittleEndian.PutUint32(data[off:], uint32(in.children[len(in.seps)]))
	clear(data[off+4:])
}

// maxInternalFanout bounds internal node size well inside a page.
const maxInternalFanout = (PageSize - 16) / 12

// btree operations. Traversals restart whenever a fault (device read)
// occurred, because the tree may have changed while the process slept;
// mutations touch only resident pages, so each apply is atomic in
// simulation time.
type btree struct {
	db *DB
}

// node returns the decoded form of a frame, decoding it on first use: a
// leaf into a recycled one, and an internal node's buffer goes back.
func (bt *btree) node(f *frame) any {
	if f.node == nil {
		pool := bt.db.pool
		var reuse *leafNode
		if len(f.data) == PageSize && f.data[0] == nodeLeaf {
			reuse = pool.newLeaf()
		}
		n, err := decodeNode(f.data, reuse)
		if err != nil {
			panic(err)
		}
		if _, isLeaf := n.(*leafNode); !isLeaf {
			pool.bufs.Put(f.data)
		}
		f.node, f.data = n, nil
	}
	return f.node
}

// find walks to the leaf for key without faulting; ok=false with a pageID
// to fault when a page is missing.
func (bt *btree) findResident(key uint64) (*frame, *leafNode, pageID, bool) {
	id := bt.db.root
	for {
		f, ok := bt.db.pool.get(id)
		if !ok {
			return nil, nil, id, false
		}
		switch n := bt.node(f).(type) {
		case *leafNode:
			return f, n, 0, true
		case *internalNode:
			id = n.child(key)
		}
	}
}

// child returns the subtree covering key: the first whose separator is
// above it.
func (in *internalNode) child(key uint64) pageID {
	i, found := slices.BinarySearch(in.seps, key)
	if found {
		i++ // a separator is the first key of the subtree to its right
	}
	return in.children[i]
}

// get returns the row for key. The row is the tree's own, valid until the
// caller parks; see the ownership rule above.
func (bt *btree) get(p *sim.Proc, key uint64) ([]byte, bool, error) {
	for {
		_, leaf, missing, ok := bt.findResident(key)
		if !ok {
			if _, err := bt.db.pool.fault(p, missing); err != nil {
				return nil, false, err
			}
			continue
		}
		if i, found := leaf.search(key); found {
			return leaf.entries[i].row, true, nil
		}
		return nil, false, nil
	}
}

// put inserts or updates key with a copy of row (see the ownership rule
// above). The mutation itself never yields.
func (bt *btree) put(p *sim.Proc, key uint64, row []byte) error {
	if len(row) > maxLeafPayload/2 {
		return fmt.Errorf("minidb: row of %d bytes too large", len(row))
	}
	for {
		f, leaf, missing, ok := bt.findResident(key)
		if !ok {
			if _, err := bt.db.pool.fault(p, missing); err != nil {
				return err
			}
			continue
		}
		idx, found := leaf.search(key)
		if found {
			if old := leaf.entries[idx].row; len(old) == len(row) {
				copy(old, row) // in its leaf's buffer, or a copy of its own
			} else {
				leaf.size += len(row) - len(old)
				leaf.entries[idx].row = append([]byte(nil), row...)
			}
		} else {
			leaf.entries = append(leaf.entries, leafEntry{})
			copy(leaf.entries[idx+1:], leaf.entries[idx:])
			leaf.entries[idx] = leafEntry{key: key, row: append([]byte(nil), row...)}
			leaf.size += leafDirEntry + len(row)
		}
		if leaf.size <= maxLeafPayload {
			bt.db.pool.markDirty(f)
			return nil
		}
		return bt.splitLeaf(p, f, leaf)
	}
}

// splitLeaf divides an overflowing leaf and pushes the separator upward.
func (bt *btree) splitLeaf(p *sim.Proc, f *frame, leaf *leafNode) error {
	pool := bt.db.pool
	mid := len(leaf.entries) / 2
	right := pool.newLeaf()
	right.entries = append(right.entries, leaf.entries[mid:]...)
	// The right half's rows lie in the left's buffer: copy them into one of
	// its own, packed from the end as encode packs them.
	right.buf = pool.bufs.Get()
	off := PageSize
	for i := range right.entries {
		e := &right.entries[i]
		off -= len(e.row)
		copy(right.buf[off:], e.row)
		e.row = right.buf[off : off+len(e.row) : off+len(e.row)]
		right.size += leafDirEntry + len(e.row)
	}
	clear(leaf.entries[mid:])
	leaf.entries = leaf.entries[:mid]
	leaf.size -= right.size
	sep := right.entries[0].key

	// Making room for the new page may evict the left one (it is clean until
	// marked below), and re-faulting it parks. The leaf is detached from its
	// frame first, so that an eviction gives back neither the leaf nor the
	// buffer its rows lie in.
	f.node = nil
	rf := pool.alloc()
	lf, ok := pool.get(f.id)
	if !ok {
		var err error
		if lf, err = pool.fault(p, f.id); err != nil {
			return err
		}
	}
	pool.setNode(lf, leaf)
	pool.markDirty(lf)
	pool.setNode(rf, right)
	pool.markDirty(rf)
	return bt.insertSep(p, lf.id, sep, rf.id)
}

// growRoot puts a new root above left and right.
func (bt *btree) growRoot(left pageID, sep uint64, right pageID) {
	nf := bt.db.pool.alloc()
	bt.db.pool.setNode(nf, &internalNode{seps: []uint64{sep}, children: []pageID{left, right}})
	bt.db.pool.markDirty(nf)
	bt.db.root = nf.id
}

// insertSep adds (sep -> right) next to child left in its parent, growing
// the tree upward as needed. Parents are located by a fresh root walk.
func (bt *btree) insertSep(p *sim.Proc, left pageID, sep uint64, right pageID) error {
	if left == bt.db.root {
		bt.growRoot(left, sep, right)
		return nil
	}
	for {
		// Walk from the root to find left's parent (all resident or fault).
		id := bt.db.root
		var parent *frame
		var pnode *internalNode
		found := false
		for !found {
			f, ok := bt.db.pool.get(id)
			if !ok {
				if _, err := bt.db.pool.fault(p, id); err != nil {
					return err
				}
				break // restart parent search
			}
			in, isInt := bt.node(f).(*internalNode)
			if !isInt {
				return fmt.Errorf("minidb: parent search hit a leaf")
			}
			for _, c := range in.children {
				if c == left {
					parent, pnode = f, in
					found = true
					break
				}
			}
			if !found {
				id = in.child(sep)
			}
		}
		if !found {
			continue
		}
		// Insert separator into parent.
		idx := 0
		for idx < len(pnode.seps) && pnode.seps[idx] < sep {
			idx++
		}
		pnode.seps = append(pnode.seps, 0)
		copy(pnode.seps[idx+1:], pnode.seps[idx:])
		pnode.seps[idx] = sep
		pnode.children = append(pnode.children, 0)
		copy(pnode.children[idx+2:], pnode.children[idx+1:])
		pnode.children[idx+1] = right
		if len(pnode.children) <= maxInternalFanout {
			bt.db.pool.markDirty(parent)
			return nil
		}
		// Split the internal node.
		mid := len(pnode.seps) / 2
		up := pnode.seps[mid]
		rn := &internalNode{
			seps:     append([]uint64(nil), pnode.seps[mid+1:]...),
			children: append([]pageID(nil), pnode.children[mid+1:]...),
		}
		pnode.seps = pnode.seps[:mid]
		pnode.children = pnode.children[:mid+1]
		// As in splitLeaf: the new page may have pushed the parent out.
		rf := bt.db.pool.alloc()
		pf, ok := bt.db.pool.get(parent.id)
		if !ok {
			var err error
			if pf, err = bt.db.pool.fault(p, parent.id); err != nil {
				return err
			}
		}
		bt.db.pool.setNode(pf, pnode)
		bt.db.pool.markDirty(pf)
		bt.db.pool.setNode(rf, rn)
		bt.db.pool.markDirty(rf)
		left, sep, right = pf.id, up, rf.id
		if left == bt.db.root {
			bt.growRoot(left, sep, right)
			return nil
		}
	}
}

// scan appends to rows up to limit rows with key >= start in key order, and
// returns the rows and arena extended. Each row's bytes are copied onto the
// end of arena as the row is collected, before the next fault parks.
func (bt *btree) scan(p *sim.Proc, start uint64, limit int, rows []Row, arena []byte) ([]Row, []byte, error) {
	if limit <= 0 {
		return rows, arena, nil
	}
	want := len(rows) + limit
	key := start
	for {
		_, leaf, missing, ok := bt.findResident(key)
		if !ok {
			if _, err := bt.db.pool.fault(p, missing); err != nil {
				return rows, arena, err
			}
			continue
		}
		from, _ := leaf.search(key)
		for _, e := range leaf.entries[from:] {
			n := len(arena)
			arena = append(arena, e.row...)
			rows = append(rows, Row{Key: e.key, Data: arena[n:len(arena):len(arena)]})
			if len(rows) >= want {
				return rows, arena, nil
			}
		}
		if len(leaf.entries) == 0 {
			return rows, arena, nil
		}
		last := leaf.entries[len(leaf.entries)-1].key
		// This leaf covered key; if its last entry is below key, it is the
		// rightmost leaf and the scan is done. The overflow check keeps
		// the max key from wrapping.
		if last < key || last == ^uint64(0) {
			return rows, arena, nil
		}
		key = last + 1
	}
}

// Row is one scanned record. Data is a copy of the row in the reading Txn's
// storage, valid until that Txn commits.
type Row struct {
	Key  uint64
	Data []byte
}
