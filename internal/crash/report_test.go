package crash

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bmstore/internal/engine"
	"bmstore/internal/sim"
)

// sweep is a SweepReport of the given seed over points.
func sweep(seed int64, points ...PointReport) *SweepReport {
	return &SweepReport{Seed: seed, Points: points, Digest: "fnv64w:sweep"}
}

var (
	okPoint   = PointReport{Stage: "dispatch", CrashAt: 1780749, Injected: true, Writes: 63, Reads: 49, RecoveryNS: 9139708, Digest: "fnv64w:point"}
	failPoint = PointReport{Stage: "cqe", CrashAt: 1960063, Injected: true, Writes: 60, Timeouts: 4,
		Violations: []string{"lba 3 lost", "lba 9 corrupt"}, Findings: []string{"cid 7 leaked"}, Digest: "fnv64w:bad"}
)

// writeExport writes reports the way `bmsctl crash-sweep -json` does: one
// object for a one-seed sweep, an array for several.
func writeExport(t *testing.T, reps []*SweepReport) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	var err error
	if len(reps) == 1 {
		err = enc.Encode(reps[0])
	} else {
		err = enc.Encode(reps)
	}
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "crash.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadSweepsRoundTrip(t *testing.T) {
	for name, reps := range map[string][]*SweepReport{
		"one seed":  {sweep(1, okPoint, failPoint)},
		"two seeds": {sweep(1, okPoint), sweep(2, okPoint, failPoint)},
	} {
		got, err := LoadSweeps(writeExport(t, reps))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, reps) {
			t.Errorf("%s: loaded %+v, want %+v", name, got, reps)
		}
	}
}

// TestLoadSweepsRejectsExportsWithNothingToJudge: JSON that holds no sweep,
// a null sweep or one with no points is an error naming the file, like JSON
// that does not parse.
func TestLoadSweepsRejectsExportsWithNothingToJudge(t *testing.T) {
	dir := t.TempDir()
	for _, body := range []string{
		`[null]`, `{}`, `[{"seed":1,"points":null}]`, `[]`, `null`, `[{"seed":1,"points":[{}]},null]`,
		`{"seed": "one"}`, `[{"seed":1,"points":[{}]}] trailing`,
	} {
		path := filepath.Join(dir, "hostile.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		reps, err := LoadSweeps(path)
		if err == nil || reps != nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: loaded %d sweeps, err %v; want an error naming the file", body, len(reps), err)
		}
	}
}

func TestWriteTextFailingPoint(t *testing.T) {
	var buf bytes.Buffer
	sweep(7, okPoint, failPoint).WriteText(&buf)
	out := buf.String()
	for _, want := range []string{
		"seed=7  points=2",
		"dispatch",
		"  ok\n",
		"FAIL(3)\n",
		"    violation: lba 3 lost\n    violation: lba 9 corrupt\n    finding:   cid 7 leaked\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "FAIL(3)") > strings.Index(out, "violation:") {
		t.Errorf("a point's violations must follow its row:\n%s", out)
	}
}

func TestClean(t *testing.T) {
	finding := okPoint
	finding.Findings = []string{"cid 7 leaked"}
	for _, tc := range []struct {
		r    *SweepReport
		want bool
	}{
		{sweep(1, okPoint, okPoint), true},
		{sweep(1, okPoint, failPoint), false},
		{sweep(1, finding), false},
	} {
		if got := tc.r.Clean(); got != tc.want {
			t.Errorf("Clean() = %v for %+v, want %v", got, tc.r.Points, tc.want)
		}
	}
}

// TestManagerKeepsExplicitConfig: no field of Config has a default to fill
// in, so a manager runs with the values it was given.
func TestManagerKeepsExplicitConfig(t *testing.T) {
	env := sim.NewEnv(1)
	for _, set := range []Config{{}, {TruncateJournal: 2, DisableRecovery: true}} {
		if got := New(env, engine.New(env, engine.Config{}), nil, set).Config(); !reflect.DeepEqual(got, set) {
			t.Fatalf("manager config %+v, want %+v", got, set)
		}
	}
}

// FuzzLoadSweeps feeds any bytes to the `crash-sweep -json` decoder: it never
// panics, and an export it accepts renders, re-encodes (in the array shape)
// and re-loads to the same reports — same encoding, same rendering.
func FuzzLoadSweeps(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		reps, err := decodeSweeps(b)
		if err != nil {
			if reps != nil {
				t.Fatalf("error %v came with %d reports", err, len(reps))
			}
			return
		}
		enc, err := json.Marshal(reps)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeSweeps(enc)
		if err != nil {
			t.Fatalf("re-encoded export does not load: %v\n%s", err, enc)
		}
		if enc2, _ := json.Marshal(again); !bytes.Equal(enc2, enc) {
			t.Fatalf("re-loaded reports encode differently:\n%s\n%s", enc, enc2)
		}
		if a, b := render(reps), render(again); a != b {
			t.Fatalf("re-loaded reports render differently:\n%s\n%s", a, b)
		}
	})
}

func render(reps []*SweepReport) string {
	var buf bytes.Buffer
	for _, r := range reps {
		r.WriteText(&buf)
		if r.Clean() {
			buf.WriteString("clean\n")
		}
	}
	return buf.String()
}
