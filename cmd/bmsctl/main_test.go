package main

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bmstore"
	"bmstore/internal/sim"
)

// invoke runs bmsctl on args with stdout and stderr captured.
func invoke(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	code, stdout, stderr, err := capture(t.TempDir(), args...)
	if err != nil {
		t.Fatal(err)
	}
	return code, stdout, stderr
}

// capture runs bmsctl on args with stdout and stderr captured in files under
// dir. It calls no testing.T method, so any goroutine may run it.
func capture(dir string, args ...string) (code int, stdout, stderr string, err error) {
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		return 0, "", "", err
	}
	defer out.Close()
	errOut, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		return 0, "", "", err
	}
	defer errOut.Close()
	savedOut, savedErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = out, errOut
	code = bmsctl(args)
	os.Stdout, os.Stderr = savedOut, savedErr
	o, _ := os.ReadFile(out.Name())
	e, _ := os.ReadFile(errOut.Name())
	return code, string(o), string(e), nil
}

// TestSubcommandErrorContract walks the verb table and pins the one error
// contract: an unknown flag, a stray positional argument, a bad value, an
// unreadable or malformed input file and an export that decodes but holds
// nothing to judge each exit 2 with the cause on stderr — never a panic,
// never a silent success, and a run verb builds nothing and prints nothing
// on stdout first.
func TestSubcommandErrorContract(t *testing.T) {
	// One positional argument more than each verb takes.
	stray := map[string][]string{
		"fio":           {"x"},
		"sweep":         {"x"},
		"fleet-run":     {"x"},
		"crash-sweep":   {"x"},
		"chaos":         {"1,1", "x"},
		"stats":         {"s.json", "3", "x"},
		"timeline":      {"t.json", "1", "x"},
		"fleet":         {"f.json", "x"},
		"crash":         {"c.json", "x"},
		"fidelity-diff": {"goldens", "r.json", "x"},
	}
	for _, name := range slices.Sorted(maps.Keys(verbs)) {
		if code, _, _ := invoke(t, name, "-nosuch"); code != 2 {
			t.Errorf("%s -nosuch: exit %d, want 2", name, code)
		}
		args, ok := stray[name]
		if !ok {
			t.Errorf("verb %s has no stray-argument case", name)
			continue
		}
		if code, stdout, _ := invoke(t, append([]string{name}, args...)...); code != 2 || stdout != "" {
			t.Errorf("%s %v: exit %d, stdout %q; want exit 2 and nothing on stdout", name, args, code, stdout)
		}
	}

	for _, args := range [][]string{
		{"fio", "-bs", "6144"},
		{"fio", "-bs", "1000"},
		{"fio", "-bs", "0"},
		{"fio", "-iodepth", "0"},
		{"fio", "-numjobs", "0"},
		{"fio", "-ssds", "0"},
		{"fio", "-scheme", "native", "-ssds", "4"},
		{"fio", "-scheme", "spdk", "-ssds", "4"},
		{"fio", "-runs", "0"},
		{"fio", "-runtime", "0"},
		{"fio", "-runtime", "-5ms"},
		{"fio", "-ramp", "-1ms"},
		{"fio", "-scheme", "bogus"},
		{"fio", "-rw", "bogus"},
		{"fio", "-faults", "bogus"},
		{"fio", "-sample", "0"},
		{"sweep", "-scale", "bogus"},
		{"sweep", "-only", "nosuch"},
		{"fleet-run", "-hosts", "0"},
		{"fleet-run", "-hosts", "4", "-host", "4"},
		{"fleet-run", "-hosts", "2", "-host", "-7"},
		{"fleet-run", "-hosts", "2", "-wave", "0"},
		{"fleet-run", "-hosts", "2", "-wave", "-2"},
		{"fleet-run", "-hosts", "2", "-ssds", "0"},
		{"fleet-run", "-hosts", "2", "-ssds", "-3"},
		{"fleet-run", "-hosts", "2", "-seed", "0"},
		{"crash-sweep", "-seeds", "3", "-point", "2"},
		{"crash-sweep", "-point", "2", "-json", "x.json"},
		{"crash-sweep", "-seed", "0"},
		{"chaos", "x"},
		{"chaos", "1,0"},
		{"chaos", "1,2,3"},
		{"chaos", "0,2"},
		// -parallel below 1 is a usage error on every verb that takes it.
		{"fio", "-parallel", "0"},
		{"sweep", "-parallel", "-1"},
		{"fleet-run", "-hosts", "2", "-parallel", "0"},
		{"crash-sweep", "-parallel", "-2"},
		{"chaos", "-parallel", "-3", "1,2"},
	} {
		code, stdout, stderr := invoke(t, args...)
		if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, nothing on stdout, one line on stderr",
				args, code, stdout, stderr)
		}
	}

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
	for _, name := range []string{"crash", "fidelity-diff", "fleet", "stats", "timeline"} {
		for _, input := range []string{"", missing, garbled} {
			args := []string{name}
			if name == "fidelity-diff" {
				args = append(args, goldens)
			}
			if input != "" {
				args = append(args, input)
			}
			if code, _, _ := invoke(t, args...); code != 2 {
				t.Errorf("%v: exit %d, want 2", args, code)
			}
		}
	}

	// Exports that decode but hold nothing to judge: a truncated export
	// must not read as a passed gate, nor panic the viewer.
	for i, tc := range []struct{ verb, body string }{
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
		if code, _, stderr := invoke(t, tc.verb, input); code != 2 || !strings.Contains(stderr, input) {
			t.Errorf("%s on %s: exit %d, stderr %q; want exit 2 and an error naming the file", tc.verb, tc.body, code, stderr)
		}
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

// TestConsoleCommandsCheckTheirArguments runs every console command with a
// required argument missing, with each numeric argument not a number and
// with one argument too many: each is a usage error, returned before
// anything reaches the card, never a panic and never a silent default. The
// demonstration script, which uses every command correctly, still passes.
func TestConsoleCommandsCheckTheirArguments(t *testing.T) {
	valid := map[string][]string{
		"version": {}, "inventory": {}, "subsys": {}, "events": {},
		"create":   {"vol9", "1", "0"},
		"bind":     {"vol0", "5"},
		"qos":      {"vol0", "50000", "0"},
		"health":   {"0"},
		"counters": {"5"},
		"upgrade":  {"0", "VDV10200", "256"},
		"ds":       {"0"},
	}
	numeric := map[string][]int{
		"create": {1, 2}, "bind": {1}, "qos": {1, 2}, "health": {0},
		"counters": {0}, "upgrade": {0, 2}, "ds": {0},
	}
	var bad [][]string
	for _, cmd := range slices.Sorted(maps.Keys(consoleUsage)) {
		args, ok := valid[cmd]
		if !ok {
			t.Errorf("console command %s has no test case", cmd)
			continue
		}
		required := strings.Count(consoleUsage[cmd], "<")
		if required > 0 {
			bad = append(bad, []string{cmd})
		}
		if required > 1 {
			bad = append(bad, append([]string{cmd}, args[:required-1]...))
		}
		for _, i := range numeric[cmd] {
			f := append([]string{cmd}, args...)
			f[1+i] = "abc"
			bad = append(bad, f)
		}
		if !strings.HasSuffix(consoleUsage[cmd], "...]") {
			bad = append(bad, append(append([]string{cmd}, args...), "extra"))
		}
	}

	cfg := bmstore.DefaultConfig()
	cfg.NumSSDs = 2
	tb, err := bmstore.NewBMStoreTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(func(p *sim.Proc) {
		for _, f := range bad {
			err := consoleCmd(tb, p, f)
			if err == nil || !strings.Contains(err.Error(), "usage: "+f[0]) {
				t.Errorf("%q: error %v, want its usage", strings.Join(f, " "), err)
			}
		}
	})

	if code, stdout, _ := invoke(t); code != 0 || strings.Contains(stdout, "error:") {
		t.Errorf("demo script: exit %d, output:\n%s", code, stdout)
	}
}
