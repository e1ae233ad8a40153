package nvmei

// Initiator × target conformance: the host side of the queue protocol driven
// against the device side (internal/nvmet) over a PCIe port and plain memory,
// with a scripted owner on each end — no engine, no SSD, no kernel driver.
// Every row runs twice: with the rings in the memory the device addresses
// directly (tag 0, the tenant driver's case) and behind a tag the device must
// put on every address it is given (the host adaptor's chip RAM).

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"bmstore/internal/hostmem"
	"bmstore/internal/nvme"
	"bmstore/internal/nvmet"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
)

// testFn is non-zero, so a register write to the wrong function shows.
const testFn pcie.FuncID = 3

const (
	adminDepth = 8
	testTag    = uint64(1) << 63
)

type regWrite struct{ off, val uint64 }

// target is the device end: a Controller whose owner completes every I/O
// command after a microsecond — or holds it until released — and executes the
// queue-management opcodes.
type target struct {
	r      *rig
	hold   bool
	held   []func()
	admins []uint8 // admin opcodes executed, in order
}

func (o *target) MayFetch() bool             { return true }
func (o *target) MayPost() bool              { return true }
func (o *target) FetchStall(uint16) sim.Time { return 0 }

func (o *target) StartIO(sq *nvmet.SQ, cmd nvme.Command, sqHead uint32) {
	post := func() {
		o.r.ctl.PostCQE(sq.CQID, nvme.Completion{CID: cmd.CID, SQID: sq.ID, SQHead: uint16(sqHead), DW0: cmd.CDW10})
	}
	if o.hold {
		o.held = append(o.held, post)
		return
	}
	o.r.env.Schedule(sim.Microsecond, post)
}

func (o *target) release() {
	for _, post := range o.held {
		post()
	}
	o.hold, o.held = false, nil
}

func (o *target) ExecAdmin(p *sim.Proc, sq *nvmet.SQ, cmd nvme.Command, sqHead uint32) {
	p.Sleep(sim.Microsecond)
	o.admins = append(o.admins, cmd.Opcode)
	cpl := nvme.Completion{CID: cmd.CID, SQID: sq.ID, SQHead: uint16(sqHead)}
	switch cmd.Opcode {
	case nvme.AdminCreateIOCQ, nvme.AdminCreateIOSQ, nvme.AdminDeleteIOCQ, nvme.AdminDeleteIOSQ:
		cpl.Status = o.r.ctl.QueueAdmin(cmd)
	}
	o.r.ctl.PostCQE(sq.CQID, cpl)
}

// rig is the initiator's owner: sequential CIDs, one waiter per admin
// command, every reaped completion kept.
type rig struct {
	t    *testing.T
	env  *sim.Env
	mem  *hostmem.Memory
	ctl  *nvmet.Controller
	dev  *target
	conn Conn

	admin *Queue
	io    map[int]*Queue // by interrupt vector

	regs    []regWrite // every register write the device received, in order
	got     map[uint16][]nvme.Completion
	waiting map[uint16]*sim.Event
	cid     uint16
}

// RegWrite makes the rig the device under the port. It sinks nothing, so CQ
// head doorbells are delivered and recorded like the rest.
func (r *rig) RegWrite(fn pcie.FuncID, off, val uint64) {
	if fn != testFn {
		r.t.Errorf("register write %#x=%#x to function %d, want %d", off, val, fn, testFn)
	}
	r.regs = append(r.regs, regWrite{off, val})
	r.ctl.RegWrite(off, val)
}

// tagged is what the device's DMA goes through: every address it was given
// must carry the rig's tag, which comes off on the way to memory — the
// engine's backendTarget in miniature.
type tagged struct {
	r    *rig
	root *pcie.Root
}

func (u tagged) strip(addr uint64) uint64 {
	if addr&u.r.conn.Tag != u.r.conn.Tag {
		u.r.t.Errorf("the device was given address %#x without tag %#x", addr, u.r.conn.Tag)
	}
	return addr &^ u.r.conn.Tag
}

func (u tagged) DMAWrite(addr uint64, n int, data []byte) sim.Time {
	return u.root.DMAWrite(u.strip(addr), n, data)
}

func (u tagged) DMARead(addr uint64, n int, buf []byte) sim.Time {
	return u.root.DMARead(u.strip(addr), n, buf)
}

// newRig enables the controller over an admin pair of adminDepth. A tagged
// address is far outside mem, so a local access that kept the tag panics.
func newRig(t *testing.T, tag uint64) *rig {
	r := &rig{
		t: t, env: sim.NewEnv(1), mem: hostmem.New(16 << 20),
		io: map[int]*Queue{}, got: map[uint16][]nvme.Completion{}, waiting: map[uint16]*sim.Event{},
	}
	r.dev = &target{r: r}
	r.ctl = nvmet.New(r.env, r.dev, testFn, nvmet.Config{FetchLatency: 500 * sim.Nanosecond, ExecProc: "t/exec"})
	port := pcie.Connect(r.env, pcie.NewLink(r.env, 4, 300*sim.Nanosecond), tagged{r, pcie.NewRoot(r.env, r.mem)}, r.irq, nil, r)
	r.ctl.Attach(port)
	r.conn = Conn{Env: r.env, Mem: r.mem, Port: port, Fn: testFn, Tag: tag}
	r.admin = r.newQueue(0, adminDepth)
	r.admin.Enable()
	r.env.Run()
	return r
}

func (r *rig) newQueue(id uint16, depth uint32) *Queue {
	sq := r.mem.AllocPages(RingPages(depth, nvme.SQESize))
	return r.conn.NewQueue(id, depth, sq, r.mem.AllocPages(RingPages(depth, nvme.CQESize)))
}

func (r *rig) irq(fn pcie.FuncID, vec int) {
	q := r.io[vec]
	if vec == 0 {
		q = r.admin
	}
	if fn != testFn || q == nil {
		r.t.Errorf("interrupt for function %d vector %d", fn, vec)
		return
	}
	var cpl nvme.Completion
	for q.Next(&cpl) {
		r.got[q.ID] = append(r.got[q.ID], cpl)
		q.Slots.Release()
		if ev := r.waiting[cpl.CID]; ev != nil {
			delete(r.waiting, cpl.CID)
			ev.Trigger(cpl)
		}
	}
}

// adminCmd is the owner's admin round trip, as Create wants it.
func (r *rig) adminCmd(p *sim.Proc, cmd nvme.Command) nvme.Completion {
	r.admin.Slots.Acquire(p)
	r.cid++
	cmd.CID = r.cid
	ev := r.env.NewEvent()
	r.waiting[cmd.CID] = ev
	r.admin.Push(&cmd)
	r.admin.Ring()
	return p.Wait(ev).(nvme.Completion)
}

// run runs fn as a process to the end of the simulation.
func (r *rig) run(fn func(p *sim.Proc)) {
	r.t.Helper()
	done := r.env.Go("test", fn).Done()
	r.env.Run()
	if !done.Processed() {
		r.t.Fatal("the test process never finished: an admin command got no completion")
	}
}

// pair creates I/O pair id and registers it for interrupts.
func (r *rig) pair(id uint16, depth uint32) *Queue {
	r.t.Helper()
	q := r.newQueue(id, depth)
	r.run(func(p *sim.Proc) {
		if err := q.Create(p, r.adminCmd); err != nil {
			r.t.Fatal(err)
		}
	})
	r.io[int(id)] = q
	return q
}

// send pushes n I/O commands on q, each under a fresh CID and carrying it in
// CDW10 (the target echoes that in DW0), and rings once; it returns the CIDs.
func (r *rig) send(q *Queue, n int) []uint16 {
	r.t.Helper()
	var cids []uint16
	for i := 0; i < n; i++ {
		if !q.Slots.TryAcquire() {
			r.t.Fatalf("queue %d: no slot for command %d of %d", q.ID, i+1, n)
		}
		r.cid++
		cmd := nvme.Command{Opcode: nvme.IORead, CID: r.cid, CDW10: uint32(r.cid)}
		q.Push(&cmd)
		cids = append(cids, r.cid)
	}
	q.Ring()
	return cids
}

// lapAndAHalf leaves q where a reset is least kind to a stale index: six
// commands round a ring of 4, so tail and head sit at 2 and the phase is 0.
func (r *rig) lapAndAHalf(q *Queue) {
	r.t.Helper()
	for i := 0; i < 2; i++ {
		r.send(q, 3)
		r.env.Run()
	}
	if head, phase := q.Head(); head != 2 || phase || len(r.got[q.ID]) != 6 {
		r.t.Fatalf("after six commands on a ring of 4: head %d phase %v, %d reaped", head, phase, len(r.got[q.ID]))
	}
}

// doorbells returns the values written to one doorbell since mark.
func (r *rig) doorbells(mark int, off uint64) []uint64 {
	var out []uint64
	for _, w := range r.regs[mark:] {
		if w.off == off {
			out = append(out, w.val)
		}
	}
	return out
}

func cidsOf(cpls []nvme.Completion) []uint16 {
	var out []uint16
	for _, c := range cpls {
		if c.DW0 != uint32(c.CID) || c.Status.IsError() {
			return nil // not the completion of the command that carried this CID
		}
		out = append(out, c.CID)
	}
	return out
}

// laps runs `laps` times around a pair of the given depth, burst commands at
// a time, and checks every index the protocol keeps: the SQ tail the device
// is told, the CQ head it is told, one head doorbell per consumed CQE, and
// the phase the initiator expects next, which flips exactly when the head
// returns to index 0.
func laps(depth uint32, burst, laps int) func(*testing.T, *rig) {
	return func(t *testing.T, r *rig) {
		q := r.pair(1, depth)
		mark := len(r.regs)
		var sent []uint16
		var wantTail, wantHead []uint64
		for n := 0; n < laps*int(depth); n += burst {
			sent = append(sent, r.send(q, burst)...)
			wantTail = append(wantTail, uint64(n+burst)%uint64(depth))
			r.env.Run()
			for i := n + 1; i <= n+burst; i++ {
				wantHead = append(wantHead, uint64(i)%uint64(depth))
			}
			head, phase := q.Head()
			if wantPhase := (n+burst)/int(depth)%2 == 0; uint64(head) != uint64(n+burst)%uint64(depth) || phase != wantPhase {
				t.Fatalf("after %d completions: head %d phase %v, want head %d phase %v", n+burst, head, phase, (n+burst)%int(depth), wantPhase)
			}
		}
		if got := cidsOf(r.got[1]); !slices.Equal(got, sent) {
			t.Fatalf("reaped CIDs %v, sent %v", got, sent)
		}
		if got := r.doorbells(mark, nvme.SQDoorbell(1)); !slices.Equal(got, wantTail) {
			t.Errorf("SQ tail doorbells %v, want %v", got, wantTail)
		}
		if got := r.doorbells(mark, nvme.CQDoorbell(1)); !slices.Equal(got, wantHead) {
			t.Errorf("CQ head doorbells %v, want one per CQE: %v", got, wantHead)
		}
		if q.Slots.InUse() != 0 {
			t.Errorf("%d slots held with nothing outstanding", q.Slots.InUse())
		}
	}
}

var conformance = []struct {
	name string
	run  func(*testing.T, *rig)
}{
	{"bring-up programs AQA, ASQ, ACQ then CC.EN, and the admin pair works", func(t *testing.T, r *rig) {
		sq, cq := r.admin.sq.Base|r.conn.Tag, r.admin.cq.Base|r.conn.Tag
		want := []regWrite{{nvme.RegAQA, (adminDepth-1)<<16 | (adminDepth - 1)}, {nvme.RegASQ, sq}, {nvme.RegACQ, cq}, {nvme.RegCC, 1}}
		if !slices.Equal(r.regs, want) {
			t.Fatalf("enable wrote %#x, want %#x", r.regs, want)
		}
		if !r.ctl.Enabled() {
			t.Fatal("controller not enabled")
		}
		// Two laps of the admin ring, one command at a time.
		r.run(func(p *sim.Proc) {
			for i := 0; i < 2*adminDepth; i++ {
				if cpl := r.adminCmd(p, nvme.Command{Opcode: nvme.AdminIdentify}); cpl.Status.IsError() || cpl.SQID != 0 {
					t.Fatalf("admin command %d: %+v", i, cpl)
				}
			}
		})
		if len(r.got[0]) != 2*adminDepth || r.admin.Slots.InUse() != 0 {
			t.Fatalf("%d admin completions, %d slots held", len(r.got[0]), r.admin.Slots.InUse())
		}
	}},
	{"depth 2: three laps, one command at a time", laps(2, 1, 3)},
	{"depth 8: five laps in bursts of 4", laps(8, 4, 5)},
	{"depth 5: four laps in bursts of depth-1", laps(5, 4, 4)},
	{"the slots stop the initiator one short of the ring", func(t *testing.T, r *rig) {
		// The model's target applies no back-pressure on a full CQ (it
		// discards head doorbells), so what keeps either ring from being
		// overrun is the slot count alone: depth-1 outstanding, no more.
		q := r.pair(1, 4)
		r.dev.hold = true
		sent := r.send(q, 3)
		r.env.Run()
		if q.Slots.TryAcquire() {
			t.Fatal("a fourth command got a slot on a ring of 4 with 3 outstanding")
		}
		if len(r.dev.held) != 3 || len(r.got[1]) != 0 {
			t.Fatalf("the target holds %d commands, %d reaped; want 3 and 0", len(r.dev.held), len(r.got[1]))
		}
		mark := len(r.regs)
		r.dev.release()
		r.env.Run()
		if got := cidsOf(r.got[1]); !slices.Equal(got, sent) {
			t.Fatalf("reaped CIDs %v, sent %v", got, sent)
		}
		if got, want := r.doorbells(mark, nvme.CQDoorbell(1)), []uint64{1, 2, 3}; !slices.Equal(got, want) {
			t.Errorf("CQ head doorbells %v, want %v", got, want)
		}
		r.send(q, 3) // and the slots are back
		r.env.Run()
		if len(r.got[1]) != 6 {
			t.Fatalf("%d completions after a second full burst, want 6", len(r.got[1]))
		}
	}},
	{"a deleted pair is re-created over the same rings", func(t *testing.T, r *rig) {
		q := r.pair(1, 4)
		r.lapAndAHalf(q) // tail and head mid-ring, phase flipped, CQEs of both phases behind
		r.run(func(p *sim.Proc) {
			for _, op := range []uint8{nvme.AdminDeleteIOSQ, nvme.AdminDeleteIOCQ} {
				if cpl := r.adminCmd(p, nvme.Command{Opcode: op, CDW10: 1}); cpl.Status.IsError() {
					t.Fatalf("delete opcode %#x: status %#x", op, cpl.Status)
				}
			}
			q.Rewind()
			if err := q.Create(p, r.adminCmd); err != nil {
				t.Fatal(err)
			}
		})
		r.irq(testFn, 1) // nothing new: the old CQEs must not be taken for it
		sent := r.send(q, 3)
		r.env.Run()
		sent = append(sent, r.send(q, 3)...) // across the wrap
		r.env.Run()
		if got := cidsOf(r.got[1][6:]); !slices.Equal(got, sent) {
			t.Fatalf("reaped CIDs %v on the re-created pair, sent %v", got, sent)
		}
	}},
	{"disable, rewind, enable: no stale completion is seen", func(t *testing.T, r *rig) {
		q := r.pair(1, 4)
		r.lapAndAHalf(q)
		r.run(func(p *sim.Proc) {
			for i := 0; i < adminDepth; i++ { // the admin pair past its wrap too
				r.adminCmd(p, nvme.Command{Opcode: nvme.AdminIdentify})
			}
		})
		nAdmin, nIO := len(r.got[0]), len(r.got[1])
		r.admin.Disable()
		r.env.Run()
		if r.ctl.Enabled() {
			t.Fatal("controller still enabled after Disable")
		}
		r.admin.Rewind()
		q.Rewind()
		mark := len(r.regs)
		r.admin.Enable()
		r.env.Run()
		r.irq(testFn, 0)
		r.irq(testFn, 1)
		if len(r.got[0]) != nAdmin || len(r.got[1]) != nIO {
			t.Fatalf("a spurious interrupt after re-enable reaped %d admin and %d I/O completions from before the reset",
				len(r.got[0])-nAdmin, len(r.got[1])-nIO)
		}
		if w := r.regs[mark:]; len(w) != 4 || w[3] != (regWrite{nvme.RegCC, 1}) {
			t.Fatalf("re-enable wrote %#x", w)
		}
		r.run(func(p *sim.Proc) {
			if err := q.Create(p, r.adminCmd); err != nil {
				t.Fatal(err)
			}
		})
		sent := r.send(q, 3)
		r.env.Run()
		if got := cidsOf(r.got[1][nIO:]); !slices.Equal(got, sent) {
			t.Fatalf("reaped CIDs %v after the reset, sent %v", got, sent)
		}
	}},
	{"create: the CQ first, and no SQ onto a refused CQ", func(t *testing.T, r *rig) {
		q := r.pair(1, 4)
		if want := []uint8{nvme.AdminCreateIOCQ, nvme.AdminCreateIOSQ}; !slices.Equal(r.dev.admins, want) {
			t.Fatalf("create ran admin opcodes %#x, want CQ then SQ %#x", r.dev.admins, want)
		}
		twin := r.newQueue(1, 4) // the id is taken: the target refuses the CQ
		r.run(func(p *sim.Proc) {
			err := twin.Create(p, r.adminCmd)
			if err == nil || !strings.Contains(err.Error(), "create CQ 1") {
				t.Fatalf("creating pair 1 twice: error %v, want the refused CQ named", err)
			}
		})
		if n := len(r.dev.admins); n != 3 || r.dev.admins[2] != nvme.AdminCreateIOCQ {
			t.Fatalf("admin opcodes %#x: after a refused CQ nothing more may be sent", r.dev.admins)
		}
		sent := r.send(q, 2) // the first pair is untouched
		r.env.Run()
		if got := cidsOf(r.got[1]); !slices.Equal(got, sent) {
			t.Fatalf("reaped CIDs %v, sent %v", got, sent)
		}
	}},
}

func TestInitiatorTargetConformance(t *testing.T) {
	for _, tag := range []uint64{0, testTag} {
		for _, row := range conformance {
			t.Run(fmt.Sprintf("tag %#x/%s", tag, row.name), func(t *testing.T) {
				defer func() { // a panic fails its row, not the table
					if p := recover(); p != nil {
						t.Errorf("panic: %v", p)
					}
				}()
				row.run(t, newRig(t, tag))
			})
		}
	}
}
