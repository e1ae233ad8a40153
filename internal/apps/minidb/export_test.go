package minidb

// DirtyFrames returns the buffer pool's running count of dirty frames and
// a recount over the frames themselves, for tests to hold against each
// other.
func (db *DB) DirtyFrames() (tracked, counted int) {
	for _, f := range db.pool.frames {
		if f.dirty {
			counted++
		}
	}
	return db.pool.dirty, counted
}

// PoolMisses is the number of page faults the buffer pool has taken.
func (db *DB) PoolMisses() uint64 { return db.pool.Misses }
