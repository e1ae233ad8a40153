package logring

import (
	"bytes"
	"fmt"
	"sort"

	"bmstore/internal/host"
	"bmstore/internal/sim"
)

// commitWindow is how long a log gathers appends before it writes them as one
// batch, the way RocksDB's write group and InnoDB's log writer batch commits.
const commitWindow = 20 * sim.Microsecond

// Log is one write-ahead log on the block ring [base, base+blocks) of a
// device. Records carry a monotone LSN; appends gather in a pending batch, and
// one writer process per log, started when someone waits, writes each batch
// after the group-commit window so that concurrent committers share one
// device write. Recovery replays the ring's records newer than what the
// application already holds, in LSN order. The records' layout is the
// application's.
type Log struct {
	env    *sim.Env
	dev    host.BlockDevice
	writer string // the commit loop's process name
	base   uint64
	blocks uint64

	writeBlock uint64 // where the next batch goes, if it fits before the end
	nextLSN    uint64
	done       uint64 // last LSN of the last batch whose write returned
	failed     uint64 // last LSN of the last batch that did not reach the device
	failErr    error  // and why

	// pending is the batch being gathered; spare is the previous batch's
	// buffer, free again once its device write has returned. Records are
	// encoded straight into pending and the batch is padded and written
	// from it, so a record is copied once on its way to the device.
	pending  []byte
	spare    []byte
	waiters  []*sim.Event
	flushing bool
}

// New returns the log on blocks [base, base+blocks) of dev, whose commit loop
// runs as process writer. Its first LSN is 1; Recover moves it past the
// ring's records.
func New(env *sim.Env, dev host.BlockDevice, writer string, base, blocks uint64) *Log {
	return &Log{env: env, dev: dev, writer: writer, base: base, blocks: blocks, nextLSN: 1}
}

// NextLSN is the LSN the next record appended gets.
func (l *Log) NextLSN() uint64 { return l.nextLSN }

// Append adds one record to the pending batch without waiting and returns its
// LSN. put appends the record, tagged with lsn, to batch and returns the
// result.
func (l *Log) Append(put func(batch []byte, lsn uint64) []byte) uint64 {
	lsn := l.nextLSN
	l.nextLSN++
	l.pending = put(l.pending, lsn)
	return lsn
}

// Wait blocks until the batch holding every record appended so far has been
// written. It returns the error of a batch that did not reach the device if
// that batch held a record from LSN from on.
func (l *Log) Wait(p *sim.Proc, from uint64) error {
	l.await(p)
	return l.errSince(from)
}

// Sync waits until the log is idle: everything appended so far is written and
// no batch is in flight. It returns the error of a batch that did not reach
// the device among those not yet written when it was called.
func (l *Log) Sync(p *sim.Proc) error {
	from := l.done + 1
	for l.flushing || len(l.pending) > 0 {
		l.await(p)
	}
	return l.errSince(from)
}

// await waits for the end of the commit round after the current one, starting
// the commit loop if it is not running.
func (l *Log) await(p *sim.Proc) {
	ev := l.env.NewEvent()
	l.waiters = append(l.waiters, ev)
	if !l.flushing {
		l.flushing = true
		l.env.Go(l.writer, l.commitLoop)
	}
	p.Wait(ev)
}

func (l *Log) errSince(from uint64) error {
	if l.failed >= from {
		return l.failErr
	}
	return nil
}

// commitLoop gathers appends for the group-commit window, writes the batch
// and wakes every waiter, in the order they came. It runs while anyone
// waits, so a sync that arrives during a batch's write is woken by the next
// round, which writes nothing if no append came.
func (l *Log) commitLoop(p *sim.Proc) {
	defer func() { l.flushing = false }()
	for len(l.pending) > 0 || len(l.waiters) > 0 {
		p.Sleep(commitWindow)
		batch, waiters, last := l.pending, l.waiters, l.nextLSN-1
		l.pending, l.spare, l.waiters = l.spare[:0], nil, nil
		batch, err := l.write(p, batch)
		l.spare, l.done = batch, last
		if err != nil {
			l.failed, l.failErr = last, err
		}
		for _, ev := range waiters {
			ev.Trigger(nil)
		}
	}
}

// write zero-pads batch to whole blocks in place and writes it at the write
// position, or from the ring's start if it does not fit before the end: a
// batch never wraps, so recovery finds each at a block boundary. It returns
// the padded batch.
func (l *Log) write(p *sim.Proc, batch []byte) ([]byte, error) {
	bs := l.dev.BlockSize()
	n := uint64((len(batch) + bs - 1) / bs)
	if n == 0 {
		return batch, nil
	}
	if n > l.blocks {
		return batch, fmt.Errorf("%s: a %d-byte batch does not fit the %d-block (%d-byte) ring", l.writer, len(batch), l.blocks, l.blocks*uint64(bs))
	}
	if l.writeBlock+n > l.blocks {
		l.writeBlock = 0
	}
	batch = append(batch, make([]byte, int(n)*bs-len(batch))...)
	if err := l.dev.WriteAt(p, l.base+l.writeBlock, uint32(n), batch); err != nil {
		return batch, fmt.Errorf("%s: writing a %d-block batch at block %d: %w", l.writer, n, l.base+l.writeBlock, err)
	}
	l.writeBlock += n
	return batch, nil
}

// Recover scans the ring for records, which end where end says (see Scan),
// and passes apply every one whose LSN, as lsn reads it, is newer than after,
// in LSN order, each in its own copy, which apply may keep. The next LSN is
// then past every record applied and past after.
func (l *Log) Recover(p *sim.Proc, after uint64, end func(b []byte, off int) int, lsn func(rec []byte) uint64, apply func(rec []byte) error) error {
	type found struct {
		lsn uint64
		rec []byte // nil for a record no newer than after
	}
	var recs []found
	err := Scan(p, l.dev, l.base, l.blocks, end, func(rec []byte) {
		f := found{lsn: lsn(rec)}
		if f.lsn > after {
			f.rec = bytes.Clone(rec)
		}
		recs = append(recs, f)
	})
	if err != nil {
		return err
	}
	// The older records sort with the rest, so that records sharing an LSN
	// replay in the order they always have.
	sort.Slice(recs, func(i, j int) bool { return recs[i].lsn < recs[j].lsn })
	for _, r := range recs {
		if r.lsn <= after {
			continue
		}
		if err := apply(r.rec); err != nil {
			return err
		}
		l.nextLSN = max(l.nextLSN, r.lsn+1)
	}
	l.nextLSN = max(l.nextLSN, after+1)
	return nil
}
