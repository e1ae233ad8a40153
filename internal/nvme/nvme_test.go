package nvme

import (
	"testing"
	"testing/quick"

	"bmstore/internal/hostmem"
)

func TestCommandEncodeDecodeRoundTrip(t *testing.T) {
	c := Command{
		Opcode: IOWrite, Flags: 0x40, CID: 0xBEEF, NSID: 3,
		MPTR: 0x1122334455667788, PRP1: 0xA000, PRP2: 0xB000,
		CDW10: 1, CDW11: 2, CDW12: 3, CDW13: 4, CDW14: 5, CDW15: 6,
	}
	var b [SQESize]byte
	c.Encode(&b)
	got := DecodeCommand(&b)
	if got != c {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

func TestCommandRoundTripProperty(t *testing.T) {
	f := func(op, fl uint8, cid uint16, nsid uint32, mptr, p1, p2 uint64, d10, d11, d12, d13, d14, d15 uint32) bool {
		c := Command{op, fl, cid, nsid, mptr, p1, p2, d10, d11, d12, d13, d14, d15}
		var b [SQESize]byte
		c.Encode(&b)
		return DecodeCommand(&b) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSLBAAndNLB(t *testing.T) {
	var c Command
	c.SetSLBA(0x123456789AB)
	c.SetNLB(32)
	if c.SLBA() != 0x123456789AB {
		t.Fatalf("slba %#x", c.SLBA())
	}
	if c.NLB() != 32 {
		t.Fatalf("nlb %d", c.NLB())
	}
	// NLB is zero-based on the wire.
	if c.CDW12&0xFFFF != 31 {
		t.Fatalf("wire NLB %d, want 31", c.CDW12&0xFFFF)
	}
	// Setting NLB must not clobber the upper CDW12 bits.
	c.CDW12 |= 1 << 30
	c.SetNLB(1)
	if c.CDW12>>30 != 1 {
		t.Fatal("SetNLB clobbered high CDW12 bits")
	}
}

func TestCompletionRoundTrip(t *testing.T) {
	for _, phase := range []bool{false, true} {
		c := Completion{DW0: 99, SQHead: 12, SQID: 3, CID: 77, Phase: phase, Status: StatusLBAOutOfRange}
		var b [CQESize]byte
		c.Encode(&b)
		got := DecodeCompletion(&b)
		if got != c {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, c)
		}
	}
}

func TestCompletionRoundTripProperty(t *testing.T) {
	f := func(dw0 uint32, hd, sqid, cid uint16, phase bool, st uint16) bool {
		c := Completion{DW0: dw0, SQHead: hd, SQID: sqid, CID: cid, Phase: phase, Status: Status(st & 0x7FFF)}
		var b [CQESize]byte
		c.Encode(&b)
		return DecodeCompletion(&b) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDoorbellLayout(t *testing.T) {
	for qid := uint16(0); qid < 8; qid++ {
		if q, isCQ, ok := DoorbellQueue(SQDoorbell(qid)); !ok || isCQ || q != qid {
			t.Fatalf("SQ doorbell %d decoded to (%d,%v,%v)", qid, q, isCQ, ok)
		}
		if q, isCQ, ok := DoorbellQueue(CQDoorbell(qid)); !ok || !isCQ || q != qid {
			t.Fatalf("CQ doorbell %d decoded to (%d,%v,%v)", qid, q, isCQ, ok)
		}
	}
	if _, _, ok := DoorbellQueue(0x0FFC); ok {
		t.Fatal("offset below doorbell base decoded")
	}
}

func TestRingArithmetic(t *testing.T) {
	r := Ring{Base: 0x1000, Entries: 4, EntrySz: 64}
	if r.SlotAddr(0) != 0x1000 || r.SlotAddr(3) != 0x10C0 || r.SlotAddr(4) != 0x1000 {
		t.Fatal("slot addressing wrong")
	}
	if r.Next(3) != 0 {
		t.Fatal("wraparound wrong")
	}
}

func TestPRPSinglePage(t *testing.T) {
	mem := hostmem.New(1 << 20)
	p1, p2, lists := BuildPRPs(mem, 0x2000, 4096)
	if p1 != 0x2000 || p2 != 0 || lists != nil {
		t.Fatalf("got %#x %#x %v", p1, p2, lists)
	}
	segs, err := WalkPRPsInto(nil, mem, p1, p2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0] != (Segment{0x2000, 4096}) {
		t.Fatalf("segs %v", segs)
	}
}

func TestPRPOffsetFirstPage(t *testing.T) {
	mem := hostmem.New(1 << 20)
	// 100 bytes into a page, 5000 bytes: first seg 3996, then one page,
	// then 1004 leftover => needs a list of 2 entries? 3996+4096=8092 <
	// 5000? No: 5000-3996 = 1004, a single extra page => PRP2 direct.
	p1, p2, lists := BuildPRPs(mem, 0x2064, 5000)
	if p1 != 0x2064 || p2 != 0x3000 || lists != nil {
		t.Fatalf("got %#x %#x %v", p1, p2, lists)
	}
	segs, err := WalkPRPsInto(nil, mem, p1, p2, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0].Len != 4096-100 || segs[1].Len != 1004 {
		t.Fatalf("segs %v", segs)
	}
}

func TestPRPList(t *testing.T) {
	mem := hostmem.New(1 << 22)
	buf := mem.AllocPages(32)
	p1, p2, lists := BuildPRPs(mem, buf, 32*4096)
	if len(lists) != 1 {
		t.Fatalf("lists %v", lists)
	}
	if p2 != lists[0] {
		t.Fatal("PRP2 does not point at the list")
	}
	segs, err := WalkPRPsInto(nil, mem, p1, p2, 32*4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 32 {
		t.Fatalf("%d segments, want 32", len(segs))
	}
	for i, s := range segs {
		if s.Addr != buf+uint64(i)*4096 || s.Len != 4096 {
			t.Fatalf("seg %d = %+v", i, s)
		}
	}
}

func TestPRPChainedList(t *testing.T) {
	mem := hostmem.New(16 << 20)
	// 600 pages needs more than one 512-entry list page.
	n := 600 * 4096
	buf := mem.AllocPages(600)
	p1, p2, lists := BuildPRPs(mem, buf, n)
	if len(lists) != 2 {
		t.Fatalf("list pages %d, want 2", len(lists))
	}
	segs, err := WalkPRPsInto(nil, mem, p1, p2, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 600 {
		t.Fatalf("%d segments", len(segs))
	}
	total := 0
	for i, s := range segs {
		if s.Addr != buf+uint64(i)*4096 {
			t.Fatalf("seg %d addr %#x", i, s.Addr)
		}
		total += s.Len
	}
	if total != n {
		t.Fatalf("total %d", total)
	}
}

func TestWalkPRPsErrors(t *testing.T) {
	mem := hostmem.New(1 << 20)
	if _, err := WalkPRPsInto(nil, mem, 0x2000, 0, 8192); err == nil {
		t.Fatal("missing PRP2 accepted")
	}
	if _, err := WalkPRPsInto(nil, mem, 0x2000, 0x3001, 8192); err == nil {
		t.Fatal("misaligned PRP2 accepted")
	}
	if _, err := WalkPRPsInto(nil, mem, 0x2000, 0, 0); err == nil {
		t.Fatal("zero-length walk accepted")
	}
}

// Property: build-then-walk covers exactly [buf, buf+n) in order with no
// gaps or overlaps, for arbitrary offsets and sizes.
func TestPRPRoundTripProperty(t *testing.T) {
	mem := hostmem.New(64 << 20)
	base := mem.AllocPages(2100)
	f := func(off uint16, kb uint16) bool {
		o := uint64(off % 4096)
		n := (int(kb%2048) + 1) * 1024 // 1KB .. 2MB
		buf := base + o
		p1, p2, _ := BuildPRPs(mem, buf, n)
		segs, err := WalkPRPsInto(nil, mem, p1, p2, n)
		if err != nil {
			return false
		}
		want := buf
		total := 0
		for _, s := range segs {
			if s.Addr != want {
				return false
			}
			want += uint64(s.Len)
			total += s.Len
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIdentifyControllerRoundTrip(t *testing.T) {
	ic := IdentifyController{
		VID: 0x8086, SSVID: 0x8086,
		Serial: "PHLJ1234", Model: "INTEL SSDPE2KX020T8", Firmware: "VDV10131",
		NN: 128,
	}
	b := make([]byte, IdentifyPageSize)
	ic.Encode(b)
	got := DecodeIdentifyController(b)
	if got != ic {
		t.Fatalf("round trip: %+v vs %+v", got, ic)
	}
}

func TestIdentifyNamespaceRoundTrip(t *testing.T) {
	in := IdentifyNamespace{NSZE: 1 << 28, NCAP: 1 << 28, NUSE: 12345}
	b := make([]byte, IdentifyPageSize)
	in.Encode(b)
	if got := DecodeIdentifyNamespace(b); got != in {
		t.Fatalf("round trip: %+v vs %+v", got, in)
	}
}
