package pcie

import (
	"bytes"
	"testing"
	"testing/quick"

	"bmstore/internal/hostmem"
	"bmstore/internal/obs"
	"bmstore/internal/sim"
)

func TestWireBytes(t *testing.T) {
	cases := []struct {
		n    int
		want int64
	}{
		{0, TLPHeader},
		{1, 1 + TLPHeader},
		{256, 256 + TLPHeader},
		{257, 257 + 2*TLPHeader},
		{4096, 4096 + 16*TLPHeader},
	}
	for _, c := range cases {
		if got := WireBytes(c.n); got != c.want {
			t.Errorf("WireBytes(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func testRig(t *testing.T) (*sim.Env, *Root, *Port, *regSink) {
	t.Helper()
	env := sim.NewEnv(1)
	mem := hostmem.New(1 << 24)
	root := NewRoot(env, mem)
	dev := &regSink{}
	link := NewLink(env, 4, 300*sim.Nanosecond)
	var irqs []FuncID
	pt := Connect(env, link, root, func(fn FuncID, v int) { irqs = append(irqs, fn) }, nil, dev)
	dev.irqs = &irqs
	return env, root, pt, dev
}

type regSink struct {
	writes []uint64
	irqs   *[]FuncID
	at     sim.Time
}

func (r *regSink) RegWrite(fn FuncID, off, val uint64) {
	r.writes = append(r.writes, val)
}

func TestMMIOWriteIsPostedAndDelayed(t *testing.T) {
	env, _, pt, dev := testRig(t)
	pt.MMIOWrite(0, 0x1000, 42)
	if len(dev.writes) != 0 {
		t.Fatal("posted write arrived synchronously")
	}
	env.Run()
	if len(dev.writes) != 1 || dev.writes[0] != 42 {
		t.Fatalf("writes %v", dev.writes)
	}
	// 30 wire bytes at 3.94GB/s ≈ 8ns, plus 300ns latency.
	if env.Now() < 300 || env.Now() > 320 {
		t.Fatalf("delivery at %dns, want ~308ns", env.Now())
	}
}

// sinkAbove is a RegDevice that sinks every register at or above an offset.
type sinkAbove struct {
	regSink
	from uint64
}

func (s *sinkAbove) SinksReg(_ FuncID, off uint64) bool { return off >= s.from }

// TestSunkRegisterWriteBooksTheLinkAndDeliversNothing: a write the device
// says it discards (RegSinker) occupies the downstream direction like any
// other posted write, and then costs no event and no RegWrite call.
func TestSunkRegisterWriteBooksTheLinkAndDeliversNothing(t *testing.T) {
	env := sim.NewEnv(1)
	dev := &sinkAbove{from: 0x2000}
	pt := Connect(env, NewLink(env, 4, 300*sim.Nanosecond), NewRoot(env, hostmem.New(1<<24)), nil, nil, dev)
	behind := func(off uint64) sim.Time {
		for i := 0; i < 4; i++ {
			pt.MMIOWrite(0, off, uint64(i))
		}
		took := pt.DMARead(0x8000, 4096, nil) - env.Now()
		env.RunUntil(env.Now() + 10*sim.Microsecond) // drain link and queue
		return took
	}
	delivered := behind(0x1000)
	if len(dev.writes) != 4 || env.Events() != 4 {
		t.Fatalf("delivered register: %d writes in %d events, want 4 in 4", len(dev.writes), env.Events())
	}
	sunk := behind(0x2000)
	if len(dev.writes) != 4 || env.Events() != 4 {
		t.Fatalf("sunk register: %d writes and %d events in all, want the first four only", len(dev.writes), env.Events())
	}
	if sunk != delivered {
		t.Fatalf("a page read behind four writes took %d ns when they were sunk, %d ns when delivered", sunk, delivered)
	}
}

func TestDMAWriteLandsInHostMemory(t *testing.T) {
	env, root, pt, _ := testRig(t)
	data := []byte("zero-copy path")
	done := pt.DMAWrite(0x2000, len(data), data)
	if done <= env.Now() {
		t.Fatal("DMA completion not in the future")
	}
	got := make([]byte, len(data))
	root.Mem.Read(0x2000, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("memory content %q", got)
	}
}

func TestDMAReadFetchesHostMemory(t *testing.T) {
	env, root, pt, _ := testRig(t)
	root.Mem.Write(0x3000, []byte("sqe bytes"))
	buf := make([]byte, 9)
	done := pt.DMARead(0x3000, len(buf), buf)
	if string(buf) != "sqe bytes" {
		t.Fatalf("read %q", buf)
	}
	// Read round trip pays two link latencies.
	if done < env.Now()+600 {
		t.Fatalf("read completion %d too early", done)
	}
}

func TestDMANilBufferSkipsContent(t *testing.T) {
	_, root, pt, _ := testRig(t)
	before := root.Mem.TouchedPages()
	pt.DMAWrite(0x8000, 4096, nil)
	if root.Mem.TouchedPages() != before {
		t.Fatal("nil-data DMA materialised memory")
	}
	pt.DMARead(0x8000, 4096, nil)
}

func TestDMALengthMismatchPanics(t *testing.T) {
	_, _, pt, _ := testRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	pt.DMAWrite(0x1000, 8, []byte("short"))
}

// TestShortBufferDMAReadBooksNAndKeepsThePrefix: a read whose buffer is
// shorter than n moves n bytes all the same — same completion time, same
// bytes on the downstream direction, same wait for whatever reads next — and
// keeps the head of them. A buffer longer than n is still a caller bug.
func TestShortBufferDMAReadBooksNAndKeepsThePrefix(t *testing.T) {
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i*7 + 1)
	}
	read := func(keep int) (buf []byte, took sim.Time, down uint64, next sim.Time) {
		env := sim.NewEnv(1)
		env.SetMetrics(obs.NewRegistry())
		mem := hostmem.New(1 << 24)
		mem.Write(0x5000, page)
		pt := Connect(env, NewLink(env, 4, 300*sim.Nanosecond), NewRoot(env, mem), nil, nil, nil)
		buf = make([]byte, keep)
		took = pt.DMARead(0x5000, len(page), buf) - env.Now()
		down = env.Metrics().Component("pcie/link0").Counter("down_bytes").Value()
		next = pt.DMARead(0x9000, 64, nil) - env.Now()
		return buf, took, down, next
	}
	full, fullTook, fullDown, fullNext := read(len(page))
	if !bytes.Equal(full, page) || fullDown != uint64(WireBytes(len(page))) {
		t.Fatalf("full-buffer read: content matches %v, %d down-link bytes, want true and %d", bytes.Equal(full, page), fullDown, WireBytes(len(page)))
	}
	for _, keep := range []int{248, 8, 0} {
		got, took, down, next := read(keep)
		if took != fullTook || down != fullDown || next != fullNext {
			t.Errorf("keeping %d bytes: read took %d ns, %d down-link bytes, next read %d ns; the full-buffer call %d, %d, %d",
				keep, took, down, next, fullTook, fullDown, fullNext)
		}
		if !bytes.Equal(got, page[:keep]) {
			t.Errorf("keeping %d bytes: buffer is not the page's first %d", keep, keep)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a buffer longer than the transfer did not panic")
		}
	}()
	_, _, pt, _ := testRig(t)
	pt.DMARead(0x5000, 8, make([]byte, 9))
}

func TestBandwidthSaturation(t *testing.T) {
	// 100 x 4KiB upstream DMAs over a x4 link: total wire bytes =
	// 100*(4096+16*26) = 451200 at 3.9384 GB/s ≈ 114.6 us.
	env, _, pt, _ := testRig(t)
	var last sim.Time
	for i := 0; i < 100; i++ {
		last = pt.DMAWrite(0x10000, 4096, nil)
	}
	wantNS := float64(100*WireBytes(4096)) / (4 * LaneBytesPerSec) * 1e9
	got := float64(last - 300) // subtract one link latency
	if got < wantNS*0.99 || got > wantNS*1.01 {
		t.Fatalf("100 DMA writes took %.0fns, want ~%.0fns", got, wantNS)
	}
	env.Run()
}

func TestInterruptDelivery(t *testing.T) {
	env, _, pt, dev := testRig(t)
	pt.RaiseIRQ(7, 0)
	env.Run()
	if len(*dev.irqs) != 1 || (*dev.irqs)[0] != 7 {
		t.Fatalf("irqs %v", *dev.irqs)
	}
}

func TestVDMRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	mem := hostmem.New(1 << 20)
	root := NewRoot(env, mem)
	dev := &vdmEcho{}
	link := NewLink(env, 4, 300*sim.Nanosecond)
	var up [][]byte
	pt := Connect(env, link, root, nil, func(pkt []byte) { up = append(up, pkt) }, dev)
	dev.pt = pt
	pt.VDMToDevice([]byte{0x7f, 1, 2, 3})
	env.Run()
	if len(up) != 1 || !bytes.Equal(up[0], []byte{0x7f, 1, 2, 3}) {
		t.Fatalf("echoed VDMs %v", up)
	}
}

type vdmEcho struct{ pt *Port }

func (v *vdmEcho) RegWrite(fn FuncID, off, val uint64) {}
func (v *vdmEcho) VDMReceive(pkt []byte)               { v.pt.VDMToHost(pkt) }

// Property: DMA writes through a port always land byte-identical in host
// memory regardless of address alignment and size.
func TestDMAContentProperty(t *testing.T) {
	env := sim.NewEnv(1)
	mem := hostmem.New(1 << 22)
	root := NewRoot(env, mem)
	link := NewLink(env, 8, 300)
	pt := Connect(env, link, root, nil, nil, nil)
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := 0x1000 + uint64(off)
		pt.DMAWrite(addr, len(data), data)
		buf := make([]byte, len(data))
		pt.DMARead(addr, len(buf), buf)
		return bytes.Equal(buf, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
