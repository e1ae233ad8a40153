package trace

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

func TestDigestStableAndOrderSensitive(t *testing.T) {
	emitAB := func(tr *Tracer) {
		tr.Emit(100, NewKey("sim", "fire"), 1, 0, "")
		tr.Emit(200, NewKey("ssd", "issue"), 2, 4096, "SN0")
	}
	a, b := New(Options{}), New(Options{})
	emitAB(a)
	emitAB(b)
	if a.Digest() != b.Digest() {
		t.Fatalf("same stream, different digests: %s vs %s", a.Digest(), b.Digest())
	}
	if a.Events() != 2 {
		t.Fatalf("events %d", a.Events())
	}

	// Swapped order must change the digest.
	c := New(Options{})
	c.Emit(200, NewKey("ssd", "issue"), 2, 4096, "SN0")
	c.Emit(100, NewKey("sim", "fire"), 1, 0, "")
	if c.Digest() == a.Digest() {
		t.Fatal("event order not reflected in digest")
	}
}

func TestDigestSensitiveToEveryField(t *testing.T) {
	base := func() *Tracer {
		tr := New(Options{})
		tr.Emit(7, NewKey("engine", "map"), 1, 2, "x")
		return tr
	}
	ref := base().Digest()
	muts := []func(tr *Tracer){
		func(tr *Tracer) { tr.Emit(8, NewKey("engine", "map"), 1, 2, "x") },
		func(tr *Tracer) { tr.Emit(7, NewKey("host", "map"), 1, 2, "x") },
		func(tr *Tracer) { tr.Emit(7, NewKey("engine", "mip"), 1, 2, "x") },
		func(tr *Tracer) { tr.Emit(7, NewKey("engine", "map"), 9, 2, "x") },
		func(tr *Tracer) { tr.Emit(7, NewKey("engine", "map"), 1, 9, "x") },
		func(tr *Tracer) { tr.Emit(7, NewKey("engine", "map"), 1, 2, "y") },
	}
	for i, m := range muts {
		tr := New(Options{})
		m(tr)
		if tr.Digest() == ref {
			t.Fatalf("mutation %d not reflected in digest", i)
		}
	}
}

func TestStringBoundariesCanonical(t *testing.T) {
	// Length prefixing: ("ab","c") and ("a","bc") must differ.
	a := New(Options{})
	a.Emit(0, NewKey("ab", "c"), 0, 0, "")
	b := New(Options{})
	b.Emit(0, NewKey("a", "bc"), 0, 0, "")
	if a.Digest() == b.Digest() {
		t.Fatal("string field boundaries not canonicalized")
	}
}

func TestEmptyDigest(t *testing.T) {
	a, b := New(Options{}), New(Options{})
	if a.Digest() != b.Digest() || a.Events() != 0 {
		t.Fatal("empty tracers should agree")
	}
	if !strings.HasPrefix(a.Digest(), "fnv64w:") {
		t.Fatalf("digest %q", a.Digest())
	}
	// A nil tracer is tracing off: Emit on it does nothing.
	var off *Tracer
	off.Emit(1, NewKey("sim", "fire"), 0, 0, "")
}

func TestDumpOutput(t *testing.T) {
	var sb strings.Builder
	tr := New(Options{Dump: &sb})
	tr.Emit(1500, NewKey("host", "doorbell"), 0x10001, 3, "")
	tr.Emit(2500, NewKey("ssd", "issue"), 0, 4096, "PHLJ0000")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("dump lines: %q", out)
	}
	if !strings.Contains(lines[0], "host") || !strings.Contains(lines[0], "doorbell") {
		t.Fatalf("line %q", lines[0])
	}
	if !strings.Contains(lines[1], "PHLJ0000") || !strings.Contains(lines[1], "2500") {
		t.Fatalf("line %q", lines[1])
	}
	// Dump must not perturb the digest.
	plain := New(Options{})
	plain.Emit(1500, NewKey("host", "doorbell"), 0x10001, 3, "")
	plain.Emit(2500, NewKey("ssd", "issue"), 0, 4096, "PHLJ0000")
	if plain.Digest() != tr.Digest() {
		t.Fatal("dump writer changed the digest")
	}
}

// TestNoteDumpsAndDoesNotFold: a noted record is written to the dump as an
// emitted one would be, in its place among them, and neither moves the
// digest nor counts as an event; on a digest-only or nil tracer it does
// nothing.
func TestNoteDumpsAndDoesNotFold(t *testing.T) {
	fire, issue := NewKey("sim", "fire"), NewKey("ssd", "issue")
	var noted, emitted strings.Builder
	tr, ref := New(Options{Dump: &noted}), New(Options{Dump: &emitted})
	digestOnly := New(Options{})
	tr.Note(100, fire, 7, 0, "")
	tr.Emit(100, issue, 2, 4096, "SN0")
	tr.Note(200, fire, 8, 0, "")
	digestOnly.Note(100, fire, 7, 0, "")
	digestOnly.Emit(100, issue, 2, 4096, "SN0")
	ref.Emit(100, fire, 7, 0, "")
	ref.Emit(100, issue, 2, 4096, "SN0")
	ref.Emit(200, fire, 8, 0, "")
	for _, x := range []*Tracer{tr, ref} {
		if err := x.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if noted.String() != emitted.String() {
		t.Fatalf("noted dump\n%s\nwant\n%s", noted.String(), emitted.String())
	}
	plain := New(Options{})
	plain.Emit(100, issue, 2, 4096, "SN0")
	for _, x := range []*Tracer{tr, digestOnly} {
		if x.Digest() != plain.Digest() || x.Events() != 1 {
			t.Fatalf("notes folded: digest %s, %d events; want %s, 1", x.Digest(), x.Events(), plain.Digest())
		}
	}
	var off *Tracer
	off.Note(1, fire, 0, 0, "")
}

// failWriter fails every write after the first n bytes have been accepted.
type failWriter struct {
	room int
	err  error
}

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) <= w.room {
		w.room -= len(p)
		return len(p), nil
	}
	n := w.room
	w.room = 0
	return n, w.err
}

func TestFlushSurfacesDumpWriteErrors(t *testing.T) {
	wantErr := errMock("disk full")

	// Error during Flush itself: the buffered bytes don't fit.
	tr := New(Options{Dump: &failWriter{room: 0, err: wantErr}})
	tr.Emit(1, NewKey("sim", "fire"), 0, 0, "")
	if err := tr.Flush(); err != wantErr {
		t.Fatalf("Flush returned %v, want %v", err, wantErr)
	}

	// Error during Emit (bufio spills mid-stream once the buffer fills):
	// Flush must still report it even though the final flush "succeeds"
	// against the now-zero-room writer.
	fw := &failWriter{room: 16, err: wantErr}
	tr = New(Options{Dump: fw})
	for i := 0; i < 200; i++ { // > bufio default 4096 bytes of dump lines
		tr.Emit(int64(i), NewKey("engine", "dispatch"), uint64(i), 42, "spilling")
	}
	if err := tr.Flush(); err != wantErr {
		t.Fatalf("Flush returned %v, want the emit-path write error %v", err, wantErr)
	}

	// A healthy writer still flushes clean.
	var sb strings.Builder
	tr = New(Options{Dump: &sb})
	tr.Emit(1, NewKey("sim", "fire"), 0, 0, "")
	if err := tr.Flush(); err != nil {
		t.Fatalf("clean flush returned %v", err)
	}
}

type errMock string

func (e errMock) Error() string { return string(e) }

// refTracer is the fold as it was before keys: every record's subsystem,
// kind and detail packed from their strings through a zero-padded copy. It
// is the reference that keyed records must match bit for bit, in the digest
// and in the dump.
type refTracer struct {
	h uint64
	w *strings.Builder
}

func newRefTracer() *refTracer {
	return &refTracer{h: fnvOffset64, w: &strings.Builder{}}
}

func refMixString(h uint64, s string) uint64 {
	h = mixU64(h, uint64(len(s)))
	for {
		var b [16]byte
		copy(b[:], s)
		h = mixU64(h, binary.LittleEndian.Uint64(b[0:]))
		h = mixU64(h, binary.LittleEndian.Uint64(b[8:]))
		if len(s) <= 16 {
			return h
		}
		s = s[16:]
	}
}

func (r *refTracer) emit(at int64, subsys, kind string, a, b uint64, detail string) {
	h := mixU64(r.h, uint64(at))
	h = refMixString(h, subsys)
	h = refMixString(h, kind)
	h = mixU64(h, a)
	h = mixU64(h, b)
	r.h = refMixString(h, detail)
	fmt.Fprintf(r.w, "%12d %-6s %-12s a=%#x b=%#x %s\n", at, subsys, kind, a, b, detail)
}

// checkKeyFold emits the same records through keys and through the
// reference and compares the digest and the dump.
func checkKeyFold(t *testing.T, recs [][3]string) {
	t.Helper()
	ref := newRefTracer()
	var dump strings.Builder
	fnv := New(Options{Dump: &dump})
	for i, r := range recs {
		at, a, b := int64(i)*977-5, uint64(i)*0x9e3779b97f4a7c15, ^uint64(i)
		ref.emit(at, r[0], r[1], a, b, r[2])
		fnv.Emit(at, NewKey(r[0], r[1]), a, b, r[2])
	}
	if err := fnv.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("fnv64w:%016x", ref.h); fnv.Digest() != want {
		t.Fatalf("%q: fnv digest %s, string fold %s", recs, fnv.Digest(), want)
	}
	if dump.String() != ref.w.String() {
		t.Fatalf("%q: dump\n%s\nwant\n%s", recs, dump.String(), ref.w.String())
	}
	if fnv.Events() != uint64(len(recs)) {
		t.Fatalf("events %d, want %d", fnv.Events(), len(recs))
	}
}

// TestKeyFoldMatchesStringFold: a key's pre-packed words and the direct
// word reads of a detail fold exactly what the zero-padded string fold did,
// at every length around the 8- and 16-byte boundaries of a block — and, for
// the detail, whose words are read in the fold, at every length to 40.
func TestKeyFoldMatchesStringFold(t *testing.T) {
	const text = "abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGH"
	lens := []int{0, 1, 7, 8, 9, 15, 16, 17, 40}
	for _, ls := range lens {
		for _, lk := range lens {
			for ld := 0; ld <= 40; ld++ {
				checkKeyFold(t, [][3]string{
					{text[:ls], text[1 : 1+lk], text[2 : 2+ld]},
					{"sim", "fire", ""},
				})
			}
		}
	}
}

// FuzzEmitKey: any subsystem, kind and detail fold through a key into the
// digest and the dump exactly as the string fold did.
func FuzzEmitKey(f *testing.F) {
	f.Add("sim", "fire", "", "ssd", "complete", "PHLJ0000")
	f.Add("", "", "", "fault", "misdirected-read", "a process named seventeen")
	f.Fuzz(func(t *testing.T, s1, k1, d1, s2, k2, d2 string) {
		checkKeyFold(t, [][3]string{{s1, k1, d1}, {s2, k2, d2}})
	})
}

// BenchmarkTraceEmit prices the digest fast path per record: a key and an
// empty detail, as the engine's dispatch record emits it.
func BenchmarkTraceEmit(b *testing.B) {
	tr, k := NewDigest(), NewKey("engine", "dispatch")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(int64(i), k, uint64(i), 0, "")
	}
	if tr.Events() == 0 {
		b.Fatal("no events")
	}
}

// BenchmarkTraceEmitDetail is the same record with a device serial as its
// detail, as the SSDs' records carry one.
func BenchmarkTraceEmitDetail(b *testing.B) {
	tr, k := NewDigest(), NewKey("ssd", "complete")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(int64(i), k, uint64(i)<<16|3, 42, "PHLJ0000TEST001")
	}
	if tr.Events() == 0 {
		b.Fatal("no events")
	}
}
