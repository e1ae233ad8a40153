package host_test

import (
	"encoding/binary"
	"slices"
	"testing"

	"bmstore/internal/fault"
	"bmstore/internal/host"
	"bmstore/internal/hostmem"
	"bmstore/internal/nvme"
	"bmstore/internal/nvmei"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
)

// A completion entry is the device's word, all sixteen bytes of it.
// FuzzInitiatorReap plays a device that writes what it likes where it likes
// in a CQ ring of reapDepth entries and interrupts when it likes, first
// against the bare initiator and then against the driver on top of it.
//
// The program is a byte string: a byte below 0xC0 writes the sixteen bytes
// that follow it into entry (byte mod reapDepth); 0xC0–0xFE raise the
// interrupt; 0xFF rewinds the pair (bare initiator only).
const reapDepth = 8

// refReaper is the reap loop as the NVMe specification words it — consume
// while the entry at the head carries the expected phase tag, flip the tag on
// wrap — with the entry picked apart by hand. It is the reference the shared
// initiator is compared with and shares nothing with it.
type refReaper struct {
	head  uint32
	phase bool
	bells []uint64 // the head after each consumed entry
}

func (r *refReaper) reap(mem *hostmem.Memory, base uint64) (out []nvme.Completion) {
	for {
		var raw [nvme.CQESize]byte
		mem.Read(base+uint64(r.head)*nvme.CQESize, raw[:])
		dw2, dw3 := binary.LittleEndian.Uint32(raw[8:]), binary.LittleEndian.Uint32(raw[12:])
		if (dw3>>16&1 == 1) != r.phase {
			return out
		}
		out = append(out, nvme.Completion{
			DW0: binary.LittleEndian.Uint32(raw[0:]), SQHead: uint16(dw2), SQID: uint16(dw2 >> 16),
			CID: uint16(dw3), Phase: r.phase, Status: nvme.Status(dw3 >> 17),
		})
		if r.head++; r.head == reapDepth {
			r.head, r.phase = 0, !r.phase
		}
		r.bells = append(r.bells, uint64(r.head))
	}
}

// reapProgram walks prog, calling write, irq and rewind for its operations.
func reapProgram(prog []byte, write func(idx uint32, raw []byte), irq, rewind func()) {
	for len(prog) > 0 {
		op := prog[0]
		prog = prog[1:]
		switch {
		case op == 0xFF:
			rewind()
		case op >= 0xC0:
			irq()
		case len(prog) < nvme.CQESize:
			return
		default:
			write(uint32(op)%reapDepth, prog[:nvme.CQESize])
			prog = prog[nvme.CQESize:]
		}
	}
}

// bellRecorder is the device under the bare initiator's port: it keeps the
// value of every CQ head doorbell and expects no other register write.
type bellRecorder struct {
	t     *testing.T
	bells []uint64
}

func (b *bellRecorder) RegWrite(fn pcie.FuncID, off, val uint64) {
	if fn != 2 || off != nvme.CQDoorbell(1) {
		b.t.Errorf("register write %#x=%#x to function %d: reaping writes only queue 1's CQ head doorbell", off, val, fn)
	}
	b.bells = append(b.bells, val)
}

// reapBare runs prog against a bare nvmei.Queue, differentially against
// refReaper: the same entries consumed at every interrupt, one head doorbell
// per consumed entry with the head it leaves, nothing written outside the CQ
// ring (Rewind zeroes exactly the ring), no page touched that was not.
func reapBare(t *testing.T, prog []byte) {
	env := sim.NewEnv(1)
	mem := hostmem.New(1 << 20)
	dev := &bellRecorder{t: t}
	port := pcie.Connect(env, pcie.NewLink(env, 4, 300*sim.Nanosecond), pcie.NewRoot(env, mem), nil, nil, dev)
	sqBase, cqBase := mem.AllocPages(1), mem.AllocPages(1)
	q := nvmei.Conn{Env: env, Mem: mem, Port: port, Fn: 2}.NewQueue(1, reapDepth, sqBase, cqBase)
	const ringBytes = reapDepth * nvme.CQESize
	guard := make([]byte, nvme.PageSize-ringBytes)
	for i := range guard {
		guard[i] = 0xA5
	}
	mem.Write(cqBase, make([]byte, ringBytes))
	mem.Write(cqBase+ringBytes, guard)
	touched := mem.TouchedPages()

	ref := refReaper{phase: true}
	reapProgram(prog,
		func(idx uint32, raw []byte) { mem.Write(cqBase+uint64(idx)*nvme.CQESize, raw) },
		func() {
			want := ref.reap(mem, cqBase)
			var got []nvme.Completion
			var cpl nvme.Completion
			for q.Next(&cpl) {
				got = append(got, cpl)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("an interrupt reaped %+v, the reference reaps %+v", got, want)
			}
		},
		func() {
			q.Rewind()
			ref.head, ref.phase = 0, true
			zero := make([]byte, ringBytes)
			mem.Read(cqBase, zero)
			if slices.ContainsFunc(zero, func(b byte) bool { return b != 0 }) {
				t.Fatalf("the CQ ring after Rewind: % x", zero)
			}
		})
	env.Run()
	if head, phase := q.Head(); head != ref.head || phase != ref.phase {
		t.Fatalf("initiator ends at head %d phase %v, the reference at head %d phase %v", head, phase, ref.head, ref.phase)
	}
	if !slices.Equal(dev.bells, ref.bells) {
		t.Fatalf("CQ head doorbells %v, want one per consumed entry: %v", dev.bells, ref.bells)
	}
	after := make([]byte, len(guard))
	mem.Read(cqBase+ringBytes, after)
	if !slices.Equal(after, guard) || mem.TouchedPages() != touched {
		t.Fatalf("memory outside the CQ ring was written (%d pages touched, %d before)", mem.TouchedPages(), touched)
	}
}

// reapDriver runs prog against a driver whose only drive was pulled with
// three writes outstanding — CIDs 4, 5 and 6 zombied, 0 to 3 free, nobody
// waiting — so every consumed entry is one of three things: a CID beyond the
// slots or free is spurious, a zombied one is a straggler, once.
func reapDriver(t *testing.T, prog []byte) {
	dcfg := host.DefaultDriverConfig()
	dcfg.Queues, dcfg.QueueDepth, dcfg.MaxIOBytes, dcfg.CmdTimeout = 1, reapDepth, 4096, sim.Millisecond
	r := newFaultedRig(t, dcfg, fault.Rule{Point: fault.SSDDrop, Target: "SN001", At: int64(500 * sim.Microsecond)})
	var pk host.Parking
	for i := 0; i < 3; i++ {
		r.env.Go("io", func(p *sim.Proc) {
			p.Sleep(sim.Millisecond)
			pk.IO(p, r.drv.BlockDev(0), nvme.IOWrite, 0, 1, nil)
		})
	}
	r.env.Run()
	zombies := []uint16{4, 5, 6}
	want := r.drv.Counters()
	if _, z, _, _ := r.drv.QueueState(0); !slices.Equal(z, zombies) || want.Timeouts != 3 {
		t.Fatalf("set-up: zombies %v, counters %+v", z, want)
	}

	ring := r.drv.CQ(0)
	ref := refReaper{phase: true}
	reapProgram(prog,
		func(idx uint32, raw []byte) { r.h.Mem.Write(ring.SlotAddr(idx), raw) },
		func() {
			for _, cpl := range ref.reap(r.h.Mem, ring.Base) {
				if i := slices.Index(zombies, cpl.CID); i >= 0 {
					zombies = slices.Delete(zombies, i, i+1)
					want.Stragglers++
					want.ZombiesLeft--
				} else {
					want.Spurious++
				}
			}
			r.drv.IRQ(1)
			if got := r.drv.Counters(); got != want {
				t.Fatalf("counters %+v, want %+v", got, want)
			}
			free, z, n, inUse := r.drv.QueueState(0)
			if !slices.Equal(z, zombies) || n != len(zombies) || inUse != len(zombies) || len(free)+inUse != reapDepth-1 {
				t.Fatalf("zombies %v (count %d), %d free, %d in use; want zombies %v and every other slot free", z, n, len(free), inUse, zombies)
			}
		},
		func() {})
}

func FuzzInitiatorReap(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, prog []byte) {
		reapBare(t, prog)
		reapDriver(t, prog)
	})
}
