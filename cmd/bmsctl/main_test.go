package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestSubcommandErrorContract walks the offline-subcommand dispatch table
// and pins the uniform error contract: wrong arity, an unreadable input
// file, a malformed input file and an export that decodes but holds nothing
// to judge must each surface as a non-nil error (the caller prints it to
// stderr and exits 2) — never a panic, never a silent ok.
func TestSubcommandErrorContract(t *testing.T) {
	dir := t.TempDir()
	garbled := filepath.Join(dir, "garbled.json")
	if err := os.WriteFile(garbled, []byte(`{"seed": "not a number", []`), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "no-such-file.json")

	// fidelity-diff's first operand is a goldens DIRECTORY; give it a real
	// one so the error under test is the second (results) operand.
	goldens := filepath.Join(dir, "goldens")
	if err := os.Mkdir(goldens, 0o755); err != nil {
		t.Fatal(err)
	}
	argsFor := func(sub, input string) []string {
		if sub == "fidelity-diff" {
			return []string{goldens, input}
		}
		return []string{input}
	}

	names := make([]string, 0, len(subcommands))
	for name := range subcommands {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		sub := subcommands[name]
		if _, err := sub(nil); err == nil {
			t.Errorf("%s: no arguments accepted without error", name)
		}
		if _, err := sub(argsFor(name, missing)); err == nil {
			t.Errorf("%s: unreadable input file accepted without error", name)
		}
		if _, err := sub(argsFor(name, garbled)); err == nil {
			t.Errorf("%s: malformed input file accepted without error", name)
		}
	}

	// Exports that decode but hold nothing to judge: a truncated export
	// must not read as a passed gate, nor panic the viewer.
	for i, tc := range []struct{ sub, body string }{
		{"crash", `[null]`},
		{"crash", `{}`},
		{"crash", `[{"seed":1,"points":null}]`},
		{"fleet", `{"aborted_wave":-1}`},
		{"fleet", `{}`},
	} {
		input := filepath.Join(dir, fmt.Sprintf("hostile%d.json", i))
		if err := os.WriteFile(input, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s on %s: panic: %v", tc.sub, tc.body, r)
				}
			}()
			if ok, err := subcommands[tc.sub]([]string{input}); err == nil || !strings.Contains(err.Error(), input) {
				t.Errorf("%s on %s: ok=%v err=%v, want an error naming the file", tc.sub, tc.body, ok, err)
			}
		}()
	}
}

// TestSubcommandViewers exercises the happy path of the verdict-carrying
// viewers on minimal well-formed exports: a clean artifact returns
// ok=true, a failing one ok=false, with no error either way.
func TestSubcommandViewers(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	clean := write("clean.json", `{"seed":1,"points":[{"stage":"dispatch","crash_at":100,"injected":true,"digest":"d"}],"digest":"x"}`)
	if ok, err := runCrashView([]string{clean}); err != nil || !ok {
		t.Errorf("crash viewer on clean sweep: ok=%v err=%v", ok, err)
	}
	failing := write("failing.json", `[{"seed":1,"points":[{"stage":"dispatch","crash_at":100,"violations":["lba 3 lost"]}],"digest":"x"}]`)
	if ok, err := runCrashView([]string{failing}); err != nil || ok {
		t.Errorf("crash viewer on failing sweep: ok=%v err=%v", ok, err)
	}
}
