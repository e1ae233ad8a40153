package trace

import (
	"strings"
	"testing"
)

func TestDigestStableAndOrderSensitive(t *testing.T) {
	emitAB := func(tr *Tracer) {
		tr.Emit(100, "sim", "fire", 1, 0, "")
		tr.Emit(200, "ssd", "issue", 2, 4096, "SN0")
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
	c.Emit(200, "ssd", "issue", 2, 4096, "SN0")
	c.Emit(100, "sim", "fire", 1, 0, "")
	if c.Digest() == a.Digest() {
		t.Fatal("event order not reflected in digest")
	}
}

func TestDigestSensitiveToEveryField(t *testing.T) {
	base := func() *Tracer {
		tr := New(Options{})
		tr.Emit(7, "engine", "map", 1, 2, "x")
		return tr
	}
	ref := base().Digest()
	muts := []func(tr *Tracer){
		func(tr *Tracer) { tr.Emit(8, "engine", "map", 1, 2, "x") },
		func(tr *Tracer) { tr.Emit(7, "host", "map", 1, 2, "x") },
		func(tr *Tracer) { tr.Emit(7, "engine", "mip", 1, 2, "x") },
		func(tr *Tracer) { tr.Emit(7, "engine", "map", 9, 2, "x") },
		func(tr *Tracer) { tr.Emit(7, "engine", "map", 1, 9, "x") },
		func(tr *Tracer) { tr.Emit(7, "engine", "map", 1, 2, "y") },
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
	a.Emit(0, "ab", "c", 0, 0, "")
	b := New(Options{})
	b.Emit(0, "a", "bc", 0, 0, "")
	if a.Digest() == b.Digest() {
		t.Fatal("string field boundaries not canonicalized")
	}
}

func TestSHA256Mode(t *testing.T) {
	tr := New(Options{SHA256: true})
	tr.Emit(1, "sim", "fire", 0, 0, "")
	d := tr.Digest()
	if !strings.HasPrefix(d, "sha256:") || len(d) != len("sha256:")+64 {
		t.Fatalf("sha digest %q", d)
	}
	tr2 := New(Options{SHA256: true})
	tr2.Emit(1, "sim", "fire", 0, 0, "")
	if tr2.Digest() != d {
		t.Fatal("sha digest not reproducible")
	}
	tr3 := New(Options{SHA256: true})
	tr3.Emit(2, "sim", "fire", 0, 0, "")
	if tr3.Digest() == d {
		t.Fatal("sha digest insensitive to timestamp")
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
	off.Emit(1, "sim", "fire", 0, 0, "")
}

func TestDumpOutput(t *testing.T) {
	var sb strings.Builder
	tr := New(Options{Dump: &sb})
	tr.Emit(1500, "host", "doorbell", 0x10001, 3, "")
	tr.Emit(2500, "ssd", "issue", 0, 4096, "PHLJ0000")
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
	plain.Emit(1500, "host", "doorbell", 0x10001, 3, "")
	plain.Emit(2500, "ssd", "issue", 0, 4096, "PHLJ0000")
	if plain.Digest() != tr.Digest() {
		t.Fatal("dump writer changed the digest")
	}
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
	tr.Emit(1, "sim", "fire", 0, 0, "")
	if err := tr.Flush(); err != wantErr {
		t.Fatalf("Flush returned %v, want %v", err, wantErr)
	}

	// Error during Emit (bufio spills mid-stream once the buffer fills):
	// Flush must still report it even though the final flush "succeeds"
	// against the now-zero-room writer.
	fw := &failWriter{room: 16, err: wantErr}
	tr = New(Options{Dump: fw})
	for i := 0; i < 200; i++ { // > bufio default 4096 bytes of dump lines
		tr.Emit(int64(i), "engine", "dispatch", uint64(i), 42, "spilling")
	}
	if err := tr.Flush(); err != wantErr {
		t.Fatalf("Flush returned %v, want the emit-path write error %v", err, wantErr)
	}

	// A healthy writer still flushes clean.
	var sb strings.Builder
	tr = New(Options{Dump: &sb})
	tr.Emit(1, "sim", "fire", 0, 0, "")
	if err := tr.Flush(); err != nil {
		t.Fatalf("clean flush returned %v", err)
	}
}

type errMock string

func (e errMock) Error() string { return string(e) }

// BenchmarkEmit prices the digest fast path per event: a representative mix
// of numeric words and short strings, as the scheduler hooks emit it.
func BenchmarkEmit(b *testing.B) {
	tr := NewDigest()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(int64(i), "engine", "dispatch", uint64(i)<<16|3, 42, "ssd/nand")
	}
	if tr.Events() == 0 {
		b.Fatal("no events")
	}
}
