package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// The gates run bmsctl verbs in-process and hold their output to the same
// bytes at any -parallel and GOMAXPROCS, a verdict, a digest in goldens/ and
// a viewer round trip. Each check returns an error, so that
// TestGateChecksCatchPlantedFailures can plant a failure for every kind.

const (
	repoRoot = "../.." // the repository root, seen from this package
	goldens  = repoRoot + "/goldens"

	// Patterns the gates look for in a verb's output.
	passed         = `verdict: PASS`
	caughtHazard   = `viol=[1-9]`
	faultsInjected = `faults +: [1-9][0-9]* injected`
	deadRun        = `^bmsctl fio: run [01] \(seed 4[23]\) failed: .*I/O error`

	some = -1 // asks occurs for at least one match
)

// occurs is nil when pattern matches text exactly n times, or at least once
// when n is some. ^ and $ match at line boundaries.
func occurs(text, pattern string, n int) error {
	got := len(regexp.MustCompile("(?m)"+pattern).FindAllStringIndex(text, -1))
	if got == n || n == some && got > 0 {
		return nil
	}
	want := fmt.Sprint(n)
	if n == some {
		want = "at least 1"
	}
	return fmt.Errorf("%q matches %d time(s), want %s", pattern, got, want)
}

// timingLine is the wall-clock line a run verb prints on stderr.
var timingLine = regexp.MustCompile(`(?m)^\(.*simulated.* wall.*\)\n`)

// onlyLines is nil when text, less its timing line, is n lines that each
// match pattern.
func onlyLines(text, pattern string, n int) error {
	text = timingLine.ReplaceAllString(text, "")
	if errors.Join(occurs(text, pattern, n), occurs(text, `^.+$`, n)) != nil {
		return fmt.Errorf("want %d line(s) matching %q and nothing else, got:\n%s", n, pattern, text)
	}
	return nil
}

// identical is nil when a and b, the two variants what names, are the same
// bytes; otherwise it names the first line where they part.
func identical(what, a, b string) error {
	if a == b {
		return nil
	}
	al := append(strings.Split(a, "\n"), "<end>")
	bl := append(strings.Split(b, "\n"), "<end>")
	i := 0
	for i < len(al)-1 && i < len(bl)-1 && al[i] == bl[i] {
		i++
	}
	return fmt.Errorf("%s differ from line %d: %q vs %q", what, i+1, al[i], bl[i])
}

// matchesGolden is nil when got is the digest committed in dir/file. A drift
// or a missing file names the command that writes got there.
func matchesGolden(dir, file, got string) error {
	raw, err := os.ReadFile(filepath.Join(dir, file))
	bless := fmt.Sprintf("echo %s > goldens/%s", got, file)
	switch want := strings.TrimSpace(string(raw)); {
	case got == "":
		return fmt.Errorf("no digest to compare with goldens/%s", file)
	case err != nil:
		return fmt.Errorf("%v; after an intentional change, create it with: %s", err, bless)
	case got != want:
		return fmt.Errorf("got %s, want %s (goldens/%s); an intentional change re-blesses it with: %s", got, want, file, bless)
	}
	return nil
}

// exited is nil when the run what names exited with want.
func exited(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s: exit %d, want %d", what, got, want)
	}
	return nil
}

// within is nil when fn returns inside d. A run past its deadline is left
// running; the caller fails.
func within(d time.Duration, fn func()) error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
		return nil
	case <-time.After(d):
		return fmt.Errorf("still running after %v", d)
	}
}

// check fails t with every non-nil error, followed by output: a failing
// chaos, crash-sweep or fleet-run report names the bmsctl command that
// replays each failure.
func check(t *testing.T, output string, errs ...error) {
	t.Helper()
	if err := errors.Join(errs...); err != nil {
		t.Errorf("%v\noutput:\n%s", err, output)
	}
}

// digest is the field after prefix on the first line that starts with it.
func digest(text, prefix string) string {
	if m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(prefix) + ` (\S+)`).FindStringSubmatch(text); m != nil {
		return m[1]
	}
	return ""
}

// with is args followed by more, in a slice of its own.
func with(args []string, more ...string) []string {
	return append(slices.Clip(args), more...)
}

// run is one in-process bmsctl invocation: what it printed, the export it
// wrote, and err unless it exited with the status its caller wants.
type run struct {
	stdout, stderr, path, file string
	err                        error
}

// bmsctlRun is runIn a fresh directory.
func bmsctlRun(t *testing.T, want int, export string, args ...string) run {
	return runIn(t.TempDir(), want, export, args...)
}

// runIn runs args with their output captured under dir, wanting exit status
// want. A non-empty export flag (-json, -timeline-out) is pointed at a file
// in dir, read back into file. Any goroutine may run it.
func runIn(dir string, want int, export string, args ...string) run {
	var r run
	if export != "" {
		r.path = filepath.Join(dir, "export")
		args = with(args, export, r.path)
	}
	code, stdout, stderr, err := capture(dir, args...)
	r.stdout, r.stderr = stdout, stderr
	r.err = errors.Join(err, exited("bmsctl "+strings.Join(args, " "), code, want))
	if r.path != "" {
		b, err := os.ReadFile(r.path)
		r.file, r.err = string(b), errors.Join(r.err, err)
	}
	return r
}

func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs bmsctl verbs end to end; skipped under -short")
	}
}

// TestGateFault: the driver absorbs a controller stall and slow media, with
// the same bytes at -parallel 1 and 2. A dropped drive fails each run in one
// stderr line, at 2 × QD 8 and at 4 × QD 128 (whose zombie CIDs once wedged).
func TestGateFault(t *testing.T) {
	skipShort(t)
	args := []string{"fio", "-scheme", "bmstore", "-rw", "randrw", "-iodepth", "8", "-numjobs", "2",
		"-runtime", "30ms", "-runs", "2", "-trace-digest", "-faults"}
	faulted := with(args, "ssd-stall,t=10ms,dur=8ms;media-slow,nth=50,count=-1,dur=1ms")
	s := bmsctlRun(t, 0, "", with(faulted, "-parallel", "1")...)
	p := bmsctlRun(t, 0, "", with(faulted, "-parallel", "2")...)
	check(t, s.stdout, s.err, p.err,
		identical("stdout at -parallel 1 and 2", s.stdout, p.stdout),
		occurs(s.stdout, faultsInjected, some))

	dead := bmsctlRun(t, 1, "", with(args, "ssd-drop,t=5ms,target=PHLJ0000", "-parallel", "1")...)
	check(t, dead.stdout, dead.err, onlyLines(dead.stderr, deadRun, 2))

	dir := t.TempDir()
	if err := within(60*time.Second, func() { dead = runIn(dir, 1, "", "fio", "-faults", "ssd-drop,t=20ms,target=PHLJ0000") }); err != nil {
		t.Fatalf("dropped-drive run at 4 x QD 128: %v", err)
	}
	check(t, dead.stdout, dead.err, onlyLines(dead.stderr, `^bmsctl fio: run 0 \(seed 42\) failed: .*I/O error: nvme: status 0x7`, 1))
}

// TestGateChaos: a campaign of fault schedules under write-then-verify comes
// back green, catches a hazard, and reports the same bytes at -parallel 1 and 4.
func TestGateChaos(t *testing.T) {
	skipShort(t)
	s := bmsctlRun(t, 0, "", "chaos", "-parallel", "1", "1,12")
	p := bmsctlRun(t, 0, "", "chaos", "-parallel", "4", "1,12")
	check(t, s.stdout, s.err, p.err,
		identical("reports at -parallel 1 and 4", s.stdout, p.stdout),
		occurs(s.stdout, passed, some),
		occurs(s.stdout, caughtHazard, some),
		occurs(s.stdout, `campaign digest: `, some))
}

// TestGateTimeline: a sampled timeline run prints and exports the same bytes
// at -parallel 1 and 2, the export's sha256 is goldens/timeline_smoke.sha256,
// and `bmsctl timeline` rebuilds from it the summary the run printed live.
func TestGateTimeline(t *testing.T) {
	skipShort(t)
	args := []string{"fio", "-scheme", "bmstore", "-rw", "randrw", "-bs", "4096", "-iodepth", "16", "-numjobs", "2",
		"-runtime", "30ms", "-runs", "2", "-sample", "64", "-slowest", "16", "-timeline"}
	s := bmsctlRun(t, 0, "-timeline-out", with(args, "-parallel", "1")...)
	p := bmsctlRun(t, 0, "-timeline-out", with(args, "-parallel", "2")...)
	v := bmsctlRun(t, 0, "", "timeline", s.path, "0")
	_, summary, _ := strings.Cut(s.stdout, "\ntimelines:")
	_, offline, _ := strings.Cut(v.stdout, "\ntimelines:")
	check(t, s.stdout, s.err, p.err, v.err,
		identical("Perfetto exports at -parallel 1 and 2", s.file, p.file),
		identical("stdout at -parallel 1 and 2", s.stdout, p.stdout),
		matchesGolden(goldens, "timeline_smoke.sha256", fmt.Sprintf("%x", sha256.Sum256([]byte(s.file)))),
		identical("live and offline summaries", summary, offline),
		occurs(summary, `worst-K record\(s\)`, some))
}

// TestGateFleet: a rolling hot-upgrade passes its health gate with no tenant
// I/O error, reports and exports the same bytes at -parallel 1 and 4, matches
// goldens/fleet_smoke.digest, and re-renders byte for byte in `bmsctl fleet`.
func TestGateFleet(t *testing.T) {
	skipShort(t)
	args := []string{"fleet-run", "-hosts", "8", "-wave", "4", "-seed", "1", "-scale", "fast"}
	s := bmsctlRun(t, 0, "-json", with(args, "-parallel", "1")...)
	p := bmsctlRun(t, 0, "-json", with(args, "-parallel", "4")...)
	v := bmsctlRun(t, 0, "", "fleet", s.path)
	check(t, s.stdout, s.err, p.err, v.err,
		identical("reports at -parallel 1 and 4", s.stdout, p.stdout),
		identical("JSON exports at -parallel 1 and 4", s.file, p.file),
		occurs(s.stdout, passed, some),
		occurs(s.stdout, `errs 0,`, some),
		matchesGolden(goldens, "fleet_smoke.digest", digest(s.stdout, "fleet digest:")),
		identical("live and re-rendered reports", s.stdout, v.stdout))
}

// TestGateCrash: a crash-point sweep (a crash at each pipeline-stage
// boundary, recovery checked by the chaos oracle) passes, with the same bytes
// serial at GOMAXPROCS 1 and parallel at 2 and 8, matches
// goldens/crash_smoke.digest, and passes again in `bmsctl crash`.
func TestGateCrash(t *testing.T) {
	skipShort(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	sweep := func(procs int, parallel string) run {
		runtime.GOMAXPROCS(procs)
		return bmsctlRun(t, 0, "-json", "crash-sweep", "-seed", "1", "-seeds", "2", "-parallel", parallel)
	}
	s, p2, p8 := sweep(1, "1"), sweep(2, "4"), sweep(8, "4")
	v := bmsctlRun(t, 0, "", "crash", s.path)
	check(t, s.stdout, s.err, p2.err, p8.err, v.err,
		identical("reports at GOMAXPROCS 1 and 2", s.stdout, p2.stdout),
		identical("reports at GOMAXPROCS 1 and 8", s.stdout, p8.stdout),
		identical("JSON exports at GOMAXPROCS 1 and 2", s.file, p2.file),
		identical("JSON exports at GOMAXPROCS 1 and 8", s.file, p8.file),
		occurs(s.stdout, passed, some),
		matchesGolden(goldens, "crash_smoke.digest", digest(s.stdout, "sweep digest:")),
		occurs(v.stdout, passed, some))
}

// TestGateFigures: the fast sweep matches goldens/*.json cell for cell, keeps
// every paper-shape rule and renders bench_tables.txt byte for byte. Its
// artifacts land in $FIGURES_OUT (relative to the repository root), else in
// a temporary directory. `make goldens` blesses intentional new numbers.
func TestGateFigures(t *testing.T) {
	skipShort(t)
	out := os.Getenv("FIGURES_OUT")
	if out == "" {
		out = t.TempDir()
	} else if !filepath.IsAbs(out) {
		out = filepath.Join(repoRoot, out)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	results := filepath.Join(out, "results.json")
	sweep := bmsctlRun(t, 0, "", "sweep", "-scale", "fast", "-trace-digest", "-json", results, "-check", goldens)
	diff := bmsctlRun(t, 0, "", "fidelity-diff", goldens, results)
	committed, err := os.ReadFile(filepath.Join(repoRoot, "bench_tables.txt"))
	rendered := errors.Join(err, identical("committed bench_tables.txt and the regenerated tables", string(committed), sweep.stdout))
	diffText := ""
	if rendered != nil {
		diffText = rendered.Error() + "\n"
	}
	for name, body := range map[string]string{
		"bench_tables.txt":    sweep.stdout,
		"fidelity_report.txt": diff.stdout + diff.stderr,
		"bench_tables.diff":   diffText,
	} {
		if err := os.WriteFile(filepath.Join(out, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check(t, sweep.stderr+diff.stdout+diff.stderr, sweep.err, diff.err, rendered)
}

// TestGateChecksCatchPlantedFailures feeds each kind of check the gates use a
// canned bad input, and needs no simulation: each must return an error.
func TestGateChecksCatchPlantedFailures(t *testing.T) {
	report := "fleet digest: sha256:99c8d2275f8f7113\nverdict: PASS\n"
	deadStderr := "bmsctl fio: run 0 (seed 42) failed: fio: I/O error: nvme: status 0x7\n" +
		"(2 runs x 30ms simulated in 0.1s wall, parallel=1)\n" +
		"bmsctl fio: run 1 (seed 43) failed: fio: I/O error: nvme: status 0x7\n"
	block := make(chan struct{})
	defer close(block)
	for _, c := range []struct {
		name string
		err  error
	}{
		{"variants that differ", identical("reports", report, strings.Replace(report, "PASS", "FAIL", 1))},
		{"an export that differs", identical("exports", `{"ts":100}`, `{"ts":101}`)},
		{"a viewer re-render that differs", identical("live and re-rendered reports", report, report+"\n")},
		{"a drifted digest", matchesGolden(goldens, "fleet_smoke.digest", "sha256:99c8d2275f8f7114")},
		{"a missing golden", matchesGolden(goldens, "no_such.digest", "fnv64w-set:f723e5db83bebf7d")},
		{"no verdict: PASS", occurs("verdict: FAIL (11/12 runs green)\n", passed, some)},
		{"no viol=[1-9]", occurs("  run   0 seed 1  benign  viol=0   ok\n", caughtHazard, some)},
		{"faults : 0 injected", occurs("  faults    : 0 injected across 2 runs\n", faultsInjected, some)},
		{"an extra stderr line", onlyLines(deadStderr+"goroutine 1 [running]:\n", deadRun, 2)},
		{"exit 0 where 1 is required", exited("dropped-drive run", 0, 1)},
		{"a run past its deadline", within(time.Millisecond, func() { <-block })},
	} {
		if c.err == nil {
			t.Errorf("%s: not caught", c.name)
		}
	}
}
