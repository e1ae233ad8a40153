package minidb

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"slices"

	"bmstore/internal/apps/logring"
	"bmstore/internal/apps/pagebuf"
	"bmstore/internal/host"
	"bmstore/internal/sim"
)

// Config tunes the engine.
type Config struct {
	PoolPages          int
	RedoBytes          uint64
	CheckpointInterval sim.Time
}

// DefaultConfig is a small InnoDB-flavoured setup.
func DefaultConfig() Config {
	return Config{
		PoolPages:          2048, // 32 MB buffer pool
		RedoBytes:          64 << 20,
		CheckpointInterval: 500 * sim.Millisecond,
	}
}

// On-disk layout: superblock region, doublewrite journal, redo ring, pages.
// The superblock and the journal's header are logring frames under their own
// magic; the journal's spare word holds the CRC of its page images.
const (
	superBlocks  = 8
	superMagic   = 0xD1DB0001
	journalMagic = 0xD1DB00DD
)

// DB is one engine instance.
//
// Concurrency and recovery model: transaction applies run under a single
// writer lock and modify pages only in the buffer pool (no-steal: dirty
// pages are never written back between checkpoints). A checkpoint snapshots
// the dirty pages under the writer lock — so it always sees transaction-
// consistent images — then persists them through a doublewrite journal
// before updating them in place and committing the superblock. Whatever
// point the machine dies at, recovery finds either the previous checkpoint
// intact or a complete journal to roll forward, then replays the redo log.
type DB struct {
	env *sim.Env
	dev host.BlockDevice
	cfg Config

	pool *pager
	tree btree
	redo *logring.Log
	root pageID

	epoch       uint64 // checkpoint epoch
	ckptLSN     uint64 // LSN covered by the last completed checkpoint
	journalBase uint64
	journalBlks uint64
	writeLock   *sim.Resource
	ckptRunning bool
	ckptReq     *sim.Event
	// ckptBlob is the snapshot buffer of the last checkpoint, kept for the
	// next: a checkpoint is the largest allocation the engine makes, and one
	// at a time runs.
	ckptBlob []byte
	// txns are committed transactions, kept for Begin to reuse with the
	// storage they grew.
	txns []*Txn
	// failed is the error of the first commit whose redo write failed. A
	// commit updates the tree before its log write lands, so from then on
	// the tree may hold rows the log lost: like InnoDB on a failed log write,
	// the DB stops, and every later read, commit and checkpoint returns it.
	failed error

	// Stats for the workload drivers.
	Stats struct {
		Txns, Reads, Writes, Checkpoints uint64
	}
}

type superblock struct {
	Epoch    uint64
	CkptLSN  uint64
	Root     pageID
	NextPage pageID
}

// Open initialises or recovers a database on dev and starts the background
// checkpointer.
func Open(p *sim.Proc, env *sim.Env, dev host.BlockDevice, cfg Config) (*DB, error) {
	db := &DB{env: env, dev: dev, cfg: cfg, writeLock: sim.NewResource(env, 1)}
	db.tree = btree{db: db}
	bs := uint64(dev.BlockSize())

	// Journal sized for twice the nominal pool (the no-steal policy lets
	// the pool overflow under pressure until a checkpoint lands); larger
	// dirty sets fall back to a multi-pass checkpoint.
	db.journalBase = superBlocks
	db.journalBlks = uint64(2*cfg.PoolPages+1024) * blocksPerPage
	redoBase := db.journalBase + db.journalBlks
	redoBlks := cfg.RedoBytes / bs
	pageBase := redoBase + redoBlks
	if pageBase+64*blocksPerPage > dev.CapacityBlocks() {
		return nil, fmt.Errorf("minidb: device too small for layout")
	}
	db.pool = newPager(dev, pageBase, cfg.PoolPages)
	db.redo = logring.New(env, dev, "minidb/redo", redoBase, redoBlks)

	sb, haveSuper, err := db.readSuper(p)
	if err != nil {
		return nil, err
	}
	jr, haveJournal, err := db.readJournalHeader(p)
	if err != nil {
		return nil, err
	}
	switch {
	case haveJournal && (!haveSuper || jr.Super.Epoch == sb.Epoch+1):
		// Incomplete checkpoint: roll the journal forward, then adopt its
		// superblock.
		if err := db.applyJournal(p, jr); err != nil {
			return nil, err
		}
		sb = jr.Super
		if err := db.writeSuper(p, sb); err != nil {
			return nil, err
		}
		haveSuper = true
	case !haveSuper:
		// Fresh database: empty root leaf, epoch 1.
		f := db.pool.alloc()
		db.pool.setNode(f, &leafNode{})
		db.root = f.id
		db.epoch = 1
		sb = superblock{Epoch: 1, CkptLSN: 0, Root: db.root, NextPage: db.pool.nextPage}
		if err := db.pool.flushAll(p); err != nil {
			return nil, err
		}
		if err := db.writeSuper(p, sb); err != nil {
			return nil, err
		}
	}
	db.epoch = sb.Epoch
	db.ckptLSN = sb.CkptLSN
	db.root = sb.Root
	db.pool.nextPage = sb.NextPage
	err = db.redo.Recover(p, sb.CkptLSN, redoEnd, redoLSN, func(rec []byte) error {
		key, row := parseRedo(rec)
		return db.tree.put(p, key, row)
	})
	if err != nil {
		return nil, err
	}
	db.ckptReq = env.NewEvent()
	db.pool.onPressure = func() { db.ckptReq.Trigger(nil) }
	env.Go("minidb/checkpointer", db.checkpointer)
	return db, nil
}

// --- superblock ---

func (db *DB) writeSuper(p *sim.Proc, sb superblock) error {
	doc, _ := json.Marshal(sb)
	buf := make([]byte, superBlocks*db.dev.BlockSize())
	logring.PutFrame(buf, superMagic, 0, doc)
	if err := db.dev.WriteAt(p, 0, uint32(superBlocks), buf); err != nil {
		return err
	}
	return db.dev.Flush(p)
}

func (db *DB) readSuper(p *sim.Proc) (superblock, bool, error) {
	buf := make([]byte, superBlocks*db.dev.BlockSize())
	if err := db.dev.ReadAt(p, 0, uint32(superBlocks), buf); err != nil {
		return superblock{}, false, err
	}
	doc, _, ok := logring.ReadFrame(buf, superMagic)
	if !ok {
		return superblock{}, false, nil
	}
	var sb superblock
	if err := json.Unmarshal(doc, &sb); err != nil {
		return superblock{}, false, nil
	}
	return sb, true, nil
}

// --- doublewrite journal ---

type journalRec struct {
	Super superblock
	Pages []pageID
}

// writeJournal persists the planned checkpoint: header block (JSON meta +
// CRC over the images) followed by blob, the page images of rec.Pages back
// to back.
func (db *DB) writeJournal(p *sim.Proc, rec journalRec, blob []byte) error {
	bs := db.dev.BlockSize()
	meta, _ := json.Marshal(rec)
	head := make([]byte, blocksPerPage*4096)
	logring.PutFrame(head, journalMagic, crc32.ChecksumIEEE(blob), meta)
	// Images first, header last: a valid header implies complete images.
	const chunk = 512 << 10
	imgBase := db.journalBase + blocksPerPage
	for off := 0; off < len(blob); off += chunk {
		end := off + chunk
		if end > len(blob) {
			end = len(blob)
		}
		if err := db.dev.WriteAt(p, imgBase+uint64(off/bs), uint32((end-off)/bs), blob[off:end]); err != nil {
			return err
		}
	}
	if err := db.dev.Flush(p); err != nil {
		return err
	}
	if err := db.dev.WriteAt(p, db.journalBase, blocksPerPage, head); err != nil {
		return err
	}
	return db.dev.Flush(p)
}

func (db *DB) readJournalHeader(p *sim.Proc) (journalRec, bool, error) {
	head := make([]byte, blocksPerPage*4096)
	if err := db.dev.ReadAt(p, db.journalBase, blocksPerPage, head); err != nil {
		return journalRec{}, false, err
	}
	meta, blobCRC, ok := logring.ReadFrame(head, journalMagic)
	if !ok {
		return journalRec{}, false, nil
	}
	var rec journalRec
	if err := json.Unmarshal(meta, &rec); err != nil {
		return journalRec{}, false, nil
	}
	// Verify the images.
	blob := make([]byte, len(rec.Pages)*PageSize)
	bs := db.dev.BlockSize()
	imgBase := db.journalBase + blocksPerPage
	if len(blob) > 0 {
		if err := db.dev.ReadAt(p, imgBase, uint32(len(blob)/bs), blob); err != nil {
			return journalRec{}, false, err
		}
	}
	if crc32.ChecksumIEEE(blob) != blobCRC {
		return journalRec{}, false, nil
	}
	return rec, true, nil
}

// applyJournal rolls a complete journal's page images into place.
func (db *DB) applyJournal(p *sim.Proc, rec journalRec) error {
	bs := db.dev.BlockSize()
	imgBase := db.journalBase + blocksPerPage
	img := make([]byte, PageSize)
	for i, id := range rec.Pages {
		if err := db.dev.ReadAt(p, imgBase+uint64(i*PageSize/bs), blocksPerPage, img); err != nil {
			return err
		}
		if err := db.dev.WriteAt(p, db.pool.pageLBA(id), blocksPerPage, img); err != nil {
			return err
		}
	}
	return db.dev.Flush(p)
}

// Checkpoint persists a transaction-consistent snapshot: dirty images are
// captured under the writer lock, journaled, written in place, and the
// superblock commits the new epoch.
func (db *DB) Checkpoint(p *sim.Proc) error {
	if db.failed != nil {
		return db.failed
	}
	if db.ckptRunning {
		// Someone else is checkpointing; wait for it.
		for db.ckptRunning {
			p.Sleep(sim.Millisecond)
		}
		return nil
	}
	db.ckptRunning = true
	defer func() { db.ckptRunning = false }()

	db.writeLock.Acquire(p)
	cpLSN := db.redo.NextLSN() - 1
	// Snapshot in sorted page order: map iteration order must not leak
	// into the journal layout or the write sequence, or the trace digest
	// stops being a pure function of the seed.
	dirty := make([]pageID, 0, db.pool.dirty)
	for id, f := range db.pool.frames {
		if f.dirty {
			dirty = append(dirty, id)
		}
	}
	slices.Sort(dirty)
	// Each dirty page is encoded once, straight into the buffer that is
	// both the journal blob and, page by page, the source of the in-place
	// writes. Encoding fills every byte of a page's slot, so the buffer is
	// the last checkpoint's, grown when this dirty set is larger.
	blob := slices.Grow(db.ckptBlob[:0], len(dirty)*PageSize)[:len(dirty)*PageSize]
	db.ckptBlob = blob
	versions := make([]uint64, len(dirty))
	for i, id := range dirty {
		f := db.pool.frames[id]
		f.image(blob[i*PageSize : (i+1)*PageSize])
		versions[i] = f.version
	}
	newRoot, newNext := db.root, db.pool.nextPage
	oldLSN := db.ckptLSN
	db.writeLock.Release()

	// Write the snapshot through the doublewrite journal in one pass when
	// it fits, or several otherwise. Only the final pass publishes the new
	// checkpoint LSN, so a crash between passes still replays everything
	// since the previous checkpoint. (A crash mid-multi-pass can leave a
	// mixed-epoch page tree under the old root — the narrow window a real
	// engine closes with page-level redo; see DESIGN.md.)
	maxPages := int(db.journalBlks/blocksPerPage) - 2
	for start := 0; start < len(dirty); start += maxPages {
		end := min(start+maxPages, len(dirty))
		pass := journalRec{
			Pages: dirty[start:end],
			Super: superblock{Epoch: db.epoch + 1, CkptLSN: oldLSN, Root: newRoot, NextPage: newNext},
		}
		if end == len(dirty) {
			pass.Super.CkptLSN = cpLSN
		}
		if err := db.checkpointPass(p, pass, blob[start*PageSize:end*PageSize]); err != nil {
			return err
		}
	}
	if len(dirty) == 0 {
		// Nothing dirty: still advance the checkpoint LSN.
		pass := journalRec{Super: superblock{Epoch: db.epoch + 1, CkptLSN: cpLSN, Root: newRoot, NextPage: newNext}}
		if err := db.checkpointPass(p, pass, nil); err != nil {
			return err
		}
	}
	db.ckptLSN = cpLSN
	// A snapshot page becomes clean only if nothing touched it since the
	// snapshot; pages re-dirtied during the checkpoint stay dirty for the
	// next one.
	for i, id := range dirty {
		if f, ok := db.pool.frames[id]; ok && f.version == versions[i] {
			db.pool.markClean(f)
		}
	}
	db.Stats.Checkpoints++
	return nil
}

// checkpointPass journals a batch of page images (blob holds those of
// rec.Pages back to back), writes them in place, and commits the superblock
// for this epoch.
func (db *DB) checkpointPass(p *sim.Proc, rec journalRec, blob []byte) error {
	if err := db.writeJournal(p, rec, blob); err != nil {
		return err
	}
	for i, id := range rec.Pages {
		if err := db.dev.WriteAt(p, db.pool.pageLBA(id), blocksPerPage, blob[i*PageSize:(i+1)*PageSize]); err != nil {
			return err
		}
	}
	if err := db.dev.Flush(p); err != nil {
		return err
	}
	if err := db.writeSuper(p, rec.Super); err != nil {
		return err
	}
	db.epoch = rec.Super.Epoch
	return nil
}

// checkpointer runs periodic checkpoints.
func (db *DB) checkpointer(p *sim.Proc) {
	for {
		ev := db.env.Timeout(db.cfg.CheckpointInterval, nil)
		p.WaitAny(ev, db.ckptReq)
		if db.ckptReq.Processed() {
			db.ckptReq = db.env.NewEvent()
		}
		if db.failed != nil {
			return
		}
		if err := db.Checkpoint(p); err != nil {
			panic(fmt.Sprintf("minidb: checkpoint failed: %v", err))
		}
	}
}

// --- transactions ---

// Txn buffers a transaction's writes until Commit. It keeps the rows it is
// given and the rows it reads in arena, its own storage, which Commit hands
// to the next transaction Begin starts.
type Txn struct {
	db     *DB
	writes []Row
	reads  []Row // what ReadRange returned, back to back
	arena  []byte
}

// Begin starts a transaction. The Txn is the caller's until Commit, which
// gives it back to the DB: it must not be used after Commit.
func (db *DB) Begin() *Txn {
	if n := len(db.txns); n > 0 {
		tx := db.txns[n-1]
		db.txns = db.txns[:n-1]
		return tx
	}
	return &Txn{db: db}
}

// keep copies row onto the end of the arena and returns the copy.
func (tx *Txn) keep(row []byte) []byte {
	n := len(tx.arena)
	tx.arena = append(tx.arena, row...)
	return tx.arena[n:len(tx.arena):len(tx.arena)]
}

// Read returns the latest committed row for key (read committed; the
// paper's workloads measure I/O throughput, not anomaly rates). The row is
// a copy in the transaction's storage, valid until Commit.
func (tx *Txn) Read(p *sim.Proc, key uint64) ([]byte, bool, error) {
	if tx.db.failed != nil {
		return nil, false, tx.db.failed
	}
	tx.db.Stats.Reads++
	// Read-your-writes within the transaction.
	for i := len(tx.writes) - 1; i >= 0; i-- {
		if tx.writes[i].Key == key {
			return tx.keep(tx.writes[i].Data), true, nil
		}
	}
	row, ok, err := tx.db.tree.get(p, key)
	if !ok || err != nil {
		return nil, ok, err
	}
	return tx.keep(row), true, nil
}

// ReadRange scans n rows from key upward. The rows, and their bytes, are
// copies in the transaction's storage, valid until Commit.
func (tx *Txn) ReadRange(p *sim.Proc, key uint64, n int) ([]Row, error) {
	if tx.db.failed != nil {
		return nil, tx.db.failed
	}
	tx.db.Stats.Reads += uint64(n)
	from := len(tx.reads)
	var err error
	tx.reads, tx.arena, err = tx.db.tree.scan(p, key, n, tx.reads, tx.arena)
	if err != nil {
		return nil, err
	}
	return tx.reads[from:len(tx.reads):len(tx.reads)], nil
}

// Write buffers an insert/update of key. The transaction keeps its own copy
// of row, so the caller may reuse row's storage at once.
func (tx *Txn) Write(key uint64, row []byte) {
	tx.db.Stats.Writes++
	tx.writes = append(tx.writes, Row{Key: key, Data: tx.keep(row)})
}

// Commit applies the transaction under the writer lock, logs it, and waits
// for group-commit durability. A failed log write fails the DB. Commit gives
// the Txn back to the DB whatever it returns, and with it the storage of
// every row Read and ReadRange returned. A race-detector build poisons that
// storage and panics on a second Commit of one Txn.
func (tx *Txn) Commit(p *sim.Proc) error {
	if pagebuf.Poisoned && slices.Contains(tx.db.txns, tx) {
		panic("minidb: Commit of a Txn that was already committed")
	}
	err := tx.commit(p)
	clear(tx.writes) // drop the arenas the rows were kept in before this one grew
	clear(tx.reads)
	if pagebuf.Poisoned { // a row kept past Commit reads as poison, as one kept past its page's recycling does
		for i := range tx.arena {
			tx.arena[i] = pagebuf.Poison
		}
	}
	tx.writes, tx.reads, tx.arena = tx.writes[:0], tx.reads[:0], tx.arena[:0]
	tx.db.txns = append(tx.db.txns, tx)
	return err
}

func (tx *Txn) commit(p *sim.Proc) error {
	if tx.db.failed != nil {
		return tx.db.failed
	}
	if len(tx.writes) > 0 {
		tx.db.writeLock.Acquire(p)
		var first uint64
		for _, w := range tx.writes {
			lsn := tx.db.redo.Append(func(batch []byte, lsn uint64) []byte { return appendRedo(batch, lsn, w.Key, w.Data) })
			if first == 0 {
				first = lsn
			}
			if err := tx.db.tree.put(p, w.Key, w.Data); err != nil {
				tx.db.writeLock.Release()
				return err
			}
		}
		tx.db.writeLock.Release()
		if err := tx.db.redo.Wait(p, first); err != nil {
			if tx.db.failed == nil {
				tx.db.failed = err
			}
			return err
		}
	}
	tx.db.Stats.Txns++
	return nil
}

// Put is a single-write auto-commit convenience.
func (db *DB) Put(p *sim.Proc, key uint64, row []byte) error {
	tx := db.Begin()
	tx.Write(key, row)
	return tx.Commit(p)
}
