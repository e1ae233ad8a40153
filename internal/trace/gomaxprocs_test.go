// GOMAXPROCS invariance: the schedulers beneath the worker pool must never
// leak into simulation results. The traced sweep pins the digest and the
// rendered tables; an untraced sweep of the same cells pins that attaching
// the tracer changes no table (both legs run the fused data path).
package trace_test

import (
	"bytes"
	"runtime"
	"testing"

	"bmstore/internal/experiments"
)

// untracedSweep runs the same representative subset as sweep() with no
// tracer attached and returns the rendered tables plus the fidelity JSON
// export.
func untracedSweep(parallel int) (string, string) {
	h := experiments.NewHarness(tinyScale(), parallel, nil)
	pick := map[string]bool{"fig1": true, "fig12": true, "fig13a": true, "abl-zerocopy": true, "abl-qos": true}
	var buf bytes.Buffer
	rset := &experiments.ResultSet{Scale: "tiny"}
	for _, e := range experiments.All() {
		if pick[e.ID] {
			tab := e.Run(h)
			tab.Render(&buf)
			rset.Results = append(rset.Results, tab.Result())
		}
	}
	var jsonBuf bytes.Buffer
	if err := rset.WriteJSON(&jsonBuf); err != nil {
		panic(err)
	}
	return buf.String(), jsonBuf.String()
}

// TestDeterminismAcrossGOMAXPROCS runs the representative sweep at
// GOMAXPROCS 1, 2, and 8 and requires byte-equal tables, byte-equal JSON
// exports, and (traced leg) bit-identical combined digests. Goroutine
// scheduling under the worker pool is the only thing GOMAXPROCS can move,
// and none of it may reach a simulation result.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("three full sweeps; skipped under -short")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type run struct {
		procs              int
		tabs, json, digest string
		fastTabs, fastJSON string
	}
	var runs []run
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		tabs, json, _, digest := sweep(4)
		fastTabs, fastJSON := untracedSweep(4)
		runs = append(runs, run{procs, tabs, json, digest, fastTabs, fastJSON})
	}
	base := runs[0]
	if base.tabs != base.fastTabs {
		t.Error("untraced tables differ from traced tables at GOMAXPROCS=1")
	}
	for _, r := range runs[1:] {
		if r.tabs != base.tabs {
			t.Errorf("GOMAXPROCS=%d: traced tables differ from GOMAXPROCS=%d", r.procs, base.procs)
		}
		if r.json != base.json {
			t.Errorf("GOMAXPROCS=%d: fidelity JSON differs from GOMAXPROCS=%d", r.procs, base.procs)
		}
		if r.digest != base.digest {
			t.Errorf("GOMAXPROCS=%d: combined digest %s != %s at GOMAXPROCS=%d", r.procs, r.digest, base.digest, base.procs)
		}
		if r.fastTabs != base.fastTabs {
			t.Errorf("GOMAXPROCS=%d: untraced tables differ from GOMAXPROCS=%d", r.procs, base.procs)
		}
		if r.fastJSON != base.fastJSON {
			t.Errorf("GOMAXPROCS=%d: untraced JSON differs from GOMAXPROCS=%d", r.procs, base.procs)
		}
	}
	t.Logf("digest %s stable across GOMAXPROCS 1/2/8, traced == untraced", base.digest)
}
