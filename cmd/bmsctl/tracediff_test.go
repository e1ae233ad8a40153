package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bmstore/internal/trace"
)

// plantedDump writes a dump of eight model records, record i at 100*i ns,
// with kernel notes between them — kernel notes before every kth record — as
// a rig of a trace.Set, and returns its path. mutate may rewrite record i's
// time and detail, or drop it by returning at < 0.
func plantedDump(t *testing.T, name string, k int, mutate func(i int, at int64, detail string) (int64, string)) string {
	t.Helper()
	fire, spawn := trace.NewKey("sim", "fire"), trace.NewKey("sim", "spawn")
	issue := trace.NewKey("ssd", "issue")
	set := trace.NewSet(trace.Options{Dump: io.Discard}) // dump on; Flush names the destination
	tr := set.Tracer("rig0")
	for i := range 8 {
		at, detail := int64(100*i), "PHLJ0000"
		if mutate != nil {
			at, detail = mutate(i, at, detail)
		}
		if i%k == 0 {
			tr.Note(at, fire, uint64(i), 0, "")
			tr.Note(at, spawn, uint64(i), 0, "fio/j0")
		}
		if at >= 0 {
			tr.Emit(at, issue, uint64(i), 4096, detail)
		}
	}
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := set.Flush(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceDiff holds `bmsctl trace-diff` to its contract on planted dumps:
// dumps that differ only in the kernel's notes, or in a rig header's event
// count and digest, match, exit 0; a rig of another name does not; a model record moved by a nanosecond, one
// with another detail and one dropped each exit 1, naming the record, with
// the shared records before it and each side's record and the ones after.
func TestTraceDiff(t *testing.T) {
	base := plantedDump(t, "a.dump", 1, nil)

	code, stdout, stderr := invoke(t, "trace-diff", base, plantedDump(t, "kernel.dump", 3, nil))
	if code != 0 || !strings.Contains(stdout, "9 model records identical") {
		t.Errorf("dumps that differ in kernel notes only: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}

	// A parent's dump counts the kernel's records in its rig header, and so
	// digests differently: the header compares by the rig's name alone.
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	head, body, _ := strings.Cut(string(raw), "\n")
	for _, tc := range []struct {
		head string
		code int
	}{{"=== rig rig0 (24 events, fnv64w:0123456789abcdef)", 0}, {"=== rig rig1 (8 events, " + strings.SplitN(head, ", ", 2)[1], 1}} {
		other := filepath.Join(t.TempDir(), "header.dump")
		if err := os.WriteFile(other, []byte(tc.head+"\n"+body), 0o644); err != nil {
			t.Fatal(err)
		}
		if code, stdout, _ := invoke(t, "trace-diff", base, other); code != tc.code {
			t.Errorf("header %q against %q: exit %d, want %d:\n%s", tc.head, head, code, tc.code, stdout)
		}
	}

	for _, tc := range []struct {
		name   string
		mutate func(i int, at int64, detail string) (int64, string)
		want   []string
	}{
		{"moved", func(i int, at int64, d string) (int64, string) {
			if i == 5 {
				at++
			}
			return at, d
		}, []string{"model record 7 differs", "  " + issueLine(400, 4, "PHLJ0000"),
			"> " + issueLine(500, 5, "PHLJ0000"), "> " + issueLine(501, 5, "PHLJ0000"), "  " + issueLine(600, 6, "PHLJ0000")}},
		{"detail", func(i int, at int64, d string) (int64, string) {
			if i == 2 {
				d = "PHLJ0001"
			}
			return at, d
		}, []string{"model record 4 differs", "> " + issueLine(200, 2, "PHLJ0001")}},
		{"dropped", func(i int, at int64, d string) (int64, string) {
			if i == 7 {
				at = -1
			}
			return at, d
		}, []string{"model record 9 differs", "> " + issueLine(700, 7, "PHLJ0000"), "> (end of dump)"}},
	} {
		code, stdout, stderr := invoke(t, "trace-diff", base, plantedDump(t, tc.name+".dump", 2, tc.mutate))
		if code != 1 {
			t.Errorf("%s: exit %d, stderr %q; want 1", tc.name, code, stderr)
		}
		for _, w := range tc.want {
			if !strings.Contains(stdout, w) {
				t.Errorf("%s: output lacks %q:\n%s", tc.name, w, stdout)
			}
		}
	}

	if code, _, _ := invoke(t, "trace-diff", base, filepath.Join(t.TempDir(), "missing")); code != 2 {
		t.Errorf("missing dump: exit %d, want 2", code)
	}
	if code, _, _ := invoke(t, "trace-diff", base); code != 2 {
		t.Errorf("one dump: exit %d, want 2", code)
	}
}

// issueLine is the dump line of plantedDump's record.
func issueLine(at int64, i uint64, detail string) string {
	var b strings.Builder
	tr := trace.New(trace.Options{Dump: &b})
	tr.Emit(at, trace.NewKey("ssd", "issue"), i, 4096, detail)
	if err := tr.Flush(); err != nil {
		panic(err)
	}
	return strings.TrimSuffix(b.String(), "\n")
}
