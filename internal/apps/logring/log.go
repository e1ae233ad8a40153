package logring

import (
	"bytes"
	"fmt"
	"sort"

	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
)

// commitWindow is how long a log gathers appends before it writes them as one
// batch, the way RocksDB's write group and InnoDB's log writer batch commits.
const commitWindow = 20 * sim.Microsecond

// Log is one write-ahead log on the block ring [base, base+blocks) of a
// device. Records carry a monotone LSN; appends gather in a pending batch,
// and a chain of callbacks, started when someone waits, writes each batch
// after the group-commit window so that concurrent committers share one
// device write. Recovery replays the ring's records newer than what the
// application already holds, in LSN order. The records' layout is the
// application's.
type Log struct {
	env    *sim.Env
	dev    host.BlockDevice
	name   string // the log's name in its errors
	base   uint64
	blocks uint64

	writeBlock uint64 // where the next batch goes, if it fits before the end
	nextLSN    uint64
	done       uint64 // last LSN of the last batch whose write returned
	failed     uint64 // last LSN of the last batch that did not reach the device
	failErr    error  // and why

	// pending is the batch being gathered and wake the event its committers
	// wait on (nil while none does); batch, batchWake and batchLast are the
	// round's batch in flight, its event and its last LSN. spare is the
	// previous batch's buffer, free again once its device write has
	// returned. Records are encoded straight into pending and the batch is
	// padded and written from it, so a record is copied once on its way to
	// the device.
	pending   []byte
	wake      *sim.Event
	batch     []byte
	batchWake *sim.Event
	batchLast uint64
	spare     []byte
	flushing  bool

	// The chain's steps, bound once.
	startFn, roundFn func()
	writtenFn        func(host.IOOutcome)
}

// New returns the log on blocks [base, base+blocks) of dev, named name in its
// errors. Its first LSN is 1; Recover moves it past the ring's records.
func New(env *sim.Env, dev host.BlockDevice, name string, base, blocks uint64) *Log {
	l := &Log{env: env, dev: dev, name: name, base: base, blocks: blocks, nextLSN: 1}
	l.startFn, l.roundFn, l.writtenFn = l.start, l.round, l.written
	return l
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
// the commit chain if it is not running. Every committer of a round waits on
// the one pooled event the round triggers, and the kernel resumes them in the
// order they came.
func (l *Log) await(p *sim.Proc) {
	if l.wake == nil {
		l.wake = l.env.PooledEvent()
	}
	if !l.flushing {
		l.flushing = true
		l.env.Schedule(0, l.startFn)
	}
	p.Wait(l.wake)
}

func (l *Log) errSince(from uint64) error {
	if l.failed >= from {
		return l.failErr
	}
	return nil
}

// start opens the first round's group-commit window. It is a step of its own,
// queued when the chain starts, so that the window's end takes the queue
// position a writer process's first sleep took.
func (l *Log) start() { l.env.Schedule(commitWindow, l.roundFn) }

// round ends a group-commit window: it takes the pending batch and the event
// its committers wait on, and zero-pads the batch to whole blocks in place
// and writes it at the write position, or from the ring's start if it does
// not fit before the end: a batch never wraps, so recovery finds each at a
// block boundary. A batch of no bytes, or one larger than the ring, ends the
// round at once.
func (l *Log) round() {
	l.batch, l.batchWake, l.batchLast = l.pending, l.wake, l.nextLSN-1
	l.pending, l.spare, l.wake = l.spare[:0], nil, nil
	bs := l.dev.BlockSize()
	n := uint64((len(l.batch) + bs - 1) / bs)
	if n == 0 {
		l.end(nil)
		return
	}
	if n > l.blocks {
		l.end(fmt.Errorf("%s: a %d-byte batch does not fit the %d-block (%d-byte) ring", l.name, len(l.batch), l.blocks, l.blocks*uint64(bs)))
		return
	}
	if l.writeBlock+n > l.blocks {
		l.writeBlock = 0
	}
	l.batch = append(l.batch, make([]byte, int(n)*bs-len(l.batch))...)
	l.dev.Submit(nvme.IOWrite, l.base+l.writeBlock, uint32(n), l.batch, l.writtenFn)
}

// written is the batch write's completion.
func (l *Log) written(oc host.IOOutcome) {
	n := uint64(len(l.batch) / l.dev.BlockSize())
	if err := oc.Err(); err != nil {
		l.end(fmt.Errorf("%s: writing a %d-block batch at block %d: %w", l.name, n, l.base+l.writeBlock, err))
		return
	}
	l.writeBlock += n
	l.end(nil)
}

// end ends the round in flight, which failed with err if it is not nil: it
// frees the batch's buffer, acknowledges its records, wakes its committers
// and, while anyone waits or anything is pending, opens the next round's
// window. A sync that arrives during a batch's write is so woken by the next
// round, which writes nothing if no append came.
func (l *Log) end(err error) {
	l.spare, l.done, l.batch = l.batch, l.batchLast, nil
	if err != nil {
		l.failed, l.failErr = l.batchLast, err
	}
	if ev := l.batchWake; ev != nil {
		l.batchWake = nil
		ev.Trigger(nil)
	}
	if len(l.pending) > 0 || l.wake != nil {
		l.env.Schedule(commitWindow, l.roundFn)
	} else {
		l.flushing = false
	}
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
