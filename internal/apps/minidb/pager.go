// Package minidb is a page-based transactional storage engine in the
// shape of InnoDB: 16 KB pages under a buffer pool with background
// flushing, a clustered B+tree index, a redo log with group commit, and
// checkpoint-based crash recovery. The paper's MySQL experiments (TPC-C,
// Sysbench) run against this engine so the characteristic I/O mix —
// random page reads, sequential redo writes with flushes, bursty
// checkpoints — crosses the simulated storage stack.
package minidb

import (
	"slices"

	"bmstore/internal/apps/pagebuf"
	"bmstore/internal/host"
	"bmstore/internal/sim"
)

// PageSize is the database page size (InnoDB default).
const PageSize = 16 << 10

// pageID identifies one on-disk page.
type pageID uint32

// frame is one buffer-pool slot. version counts modifications so a
// checkpoint can tell whether a page was re-dirtied after its snapshot.
//
// A frame holds its page in exactly one form. Until the btree layer first
// looks at it, that is data, the image the device returned into a buffer of
// the pager's free list. From setNode on it is node, the decoded B+tree node:
// a leaf keeps the buffer (its rows alias it), an internal node gives it back.
// Nothing re-encodes a page until image is asked for the bytes (see btree.go).
//
// Frames themselves are never recycled: splitLeaf and insertSep hold a
// *frame across alloc, and a recycled one could by then be another page.
type frame struct {
	id      pageID
	data    []byte
	dirty   bool
	version uint64
	ref     bool // clock bit
	node    any  // *leafNode or *internalNode
}

// image writes the page's current on-disk form into dst (PageSize bytes),
// whatever dst held.
func (f *frame) image(dst []byte) {
	switch n := f.node.(type) {
	case *leafNode:
		n.encode(dst)
	case *internalNode:
		n.encode(dst)
	default:
		// Not decoded yet: data is the image. A page that alloc created
		// and the tree has not filled has neither, and is zeros.
		copied := copy(dst, f.data)
		clear(dst[copied:])
	}
}

// pager is the buffer pool plus the on-disk page file. Pages live after
// the superblock and redo regions.
type pager struct {
	dev      host.BlockDevice
	baseBlk  uint64 // first device block of the page region
	capacity int    // pool size in frames

	frames map[pageID]*frame
	dirty  int // frames with the dirty bit set; see markDirty, markClean, insert
	clock  []pageID
	hand   int

	nextPage pageID

	// bufs recycles page buffers: a fault reads into one, an internal node
	// gives its back once decoded, and an evicted leaf gives its back along
	// with itself (leaves, at most pagebuf.Cap of them), whose entry slice
	// the next leaf decode reuses. A device read overwrites the whole
	// buffer only on a rig that captures payload bytes (CaptureData), which
	// is how every application rig runs: without it a read leaves a
	// recycled buffer's old bytes in place, and the page would decode as
	// whatever page the buffer last held.
	bufs   pagebuf.List
	leaves []*leafNode

	// onPressure fires when the pool cannot evict (everything dirty under
	// the no-steal policy); the DB responds with a checkpoint.
	onPressure func()

	// Stats for observability.
	Hits, Misses, Writebacks, Overflows uint64
}

// markDirty records a modification to a resident page.
func (pg *pager) markDirty(f *frame) {
	if !f.dirty {
		f.dirty = true
		pg.dirty++
	}
	f.version++
}

// markClean records that a resident page's current content is on disk.
func (pg *pager) markClean(f *frame) {
	if f.dirty {
		f.dirty = false
		pg.dirty--
	}
}

func newPager(dev host.BlockDevice, baseBlk uint64, poolPages int) *pager {
	return &pager{
		dev: dev, baseBlk: baseBlk, capacity: poolPages,
		frames: make(map[pageID]*frame),
		bufs:   pagebuf.New(PageSize),
	}
}

const blocksPerPage = PageSize / 4096

func (pg *pager) pageLBA(id pageID) uint64 {
	return pg.baseBlk + uint64(id)*blocksPerPage
}

// get returns the page if resident, without I/O.
func (pg *pager) get(id pageID) (*frame, bool) {
	f, ok := pg.frames[id]
	if ok {
		f.ref = true
		pg.Hits++
	}
	return f, ok
}

// fault reads the page from disk into the pool (evicting as needed) and
// returns its frame. May yield; callers restart their traversal afterward.
func (pg *pager) fault(p *sim.Proc, id pageID) (*frame, error) {
	if f, ok := pg.frames[id]; ok {
		return f, nil
	}
	pg.Misses++
	data := pg.bufs.Get()
	if err := pg.dev.ReadAt(p, pg.pageLBA(id), blocksPerPage, data); err != nil {
		pg.bufs.Put(data)
		return nil, err
	}
	// The fault slept; someone else may have brought the page in.
	if f, ok := pg.frames[id]; ok {
		pg.bufs.Put(data)
		return f, nil
	}
	f := &frame{id: id, data: data, ref: true}
	pg.insert(f)
	return f, nil
}

// alloc creates a brand-new zeroed page resident in the pool.
func (pg *pager) alloc() *frame {
	id := pg.nextPage
	pg.nextPage++
	f := &frame{id: id, dirty: true, version: 1, ref: true}
	pg.insert(f)
	return f
}

// setNode makes n the frame's page content in place of what it held, which
// it gives back.
func (pg *pager) setNode(f *frame, n any) {
	if f.node != n {
		pg.release(f)
	}
	f.node = n
}

// release gives back what a frame's content holds — an image not yet
// decoded, or a leaf with its buffer — and leaves the frame empty.
func (pg *pager) release(f *frame) {
	if f.data != nil {
		pg.bufs.Put(f.data)
		f.data = nil
	}
	if ln, ok := f.node.(*leafNode); ok {
		if ln.buf != nil {
			pg.bufs.Put(ln.buf)
		}
		clear(ln.entries) // drop the rows that are copies of their own
		ln.entries, ln.size, ln.buf = ln.entries[:0], 0, nil
		if len(pg.leaves) < pagebuf.Cap {
			pg.leaves = append(pg.leaves, ln)
		}
	}
	f.node = nil
}

// newLeaf returns an empty leaf, a recycled one if there is one.
func (pg *pager) newLeaf() *leafNode {
	if n := len(pg.leaves); n > 0 {
		ln := pg.leaves[n-1]
		pg.leaves = pg.leaves[:n-1]
		return ln
	}
	return &leafNode{}
}

// minCleanFloor keeps enough clean frames resident that concurrent tree
// traversals cannot evict each other's freshly faulted pages in a loop.
const minCleanFloor = 8

// insert places a frame in the pool, evicting a clean victim when full.
// Dirty pages are never written back here (no-steal): when clean frames
// run out the pool overflows its nominal capacity and asks the DB for a
// checkpoint, which is what makes room again.
func (pg *pager) insert(f *frame) {
	for len(pg.frames) >= pg.capacity {
		if len(pg.frames)-pg.dirty <= minCleanFloor || !pg.evictClean() {
			pg.Overflows++
			if pg.onPressure != nil {
				pg.onPressure()
			}
			break
		}
	}
	if f.dirty {
		pg.dirty++
	}
	pg.frames[f.id] = f
	pg.clock = append(pg.clock, f.id)
}

// evictClean runs the clock hand over at most two sweeps looking for a
// clean victim; it reports false when every page is dirty.
func (pg *pager) evictClean() bool {
	for scanned := 0; scanned < 2*len(pg.clock)+2; scanned++ {
		if len(pg.clock) == 0 {
			return false
		}
		pg.hand %= len(pg.clock)
		id := pg.clock[pg.hand]
		f, ok := pg.frames[id]
		if !ok {
			pg.clock = append(pg.clock[:pg.hand], pg.clock[pg.hand+1:]...)
			continue
		}
		if f.ref {
			f.ref = false
			pg.hand++
			continue
		}
		if f.dirty {
			pg.hand++
			continue
		}
		delete(pg.frames, id)
		pg.clock = append(pg.clock[:pg.hand], pg.clock[pg.hand+1:]...)
		pg.release(f)
		return true
	}
	return false
}

func (pg *pager) writeback(p *sim.Proc, f *frame) error {
	pg.Writebacks++
	pg.markClean(f)
	// A private image, so a modification between I/O start and finish
	// doesn't tear what is written.
	img := pg.bufs.Get()
	f.image(img)
	err := pg.dev.WriteAt(p, pg.pageLBA(f.id), blocksPerPage, img)
	pg.bufs.Put(img)
	return err
}

// flushAll writes back every dirty page (checkpoint). The id snapshot is
// taken up front because writebacks yield and the pool mutates underneath.
func (pg *pager) flushAll(p *sim.Proc) error {
	ids := make([]pageID, 0, len(pg.frames))
	for id := range pg.frames {
		ids = append(ids, id)
	}
	// Sorted, not map order: the writeback sequence is device I/O and must
	// be a pure function of the workload for the determinism digests.
	slices.Sort(ids)
	for _, id := range ids {
		if f, ok := pg.frames[id]; ok && f.dirty {
			if err := pg.writeback(p, f); err != nil {
				return err
			}
		}
	}
	return pg.dev.Flush(p)
}
