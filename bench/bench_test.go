package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"bmstore/internal/sim"
)

// TestCatalogueMatchesBenchmarkJSON keeps the two descriptions of the
// benchmark in step: BENCHMARK.json, whose schema the driver fixes, and the
// catalogue the program prints its metrics from.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	var bm struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	if bm.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", bm.RunSeconds, defaultSeconds)
	}
	if len(bm.Workloads) != len(workloadCatalogue) || len(bm.EndToEnd) != len(endToEnd) || len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the catalogue %d, %d and %d",
			len(bm.Workloads), len(bm.EndToEnd), len(bm.PerLayer), len(workloadCatalogue), len(endToEnd), len(perLayer))
	}
	for i, w := range workloadCatalogue {
		if bm.Workloads[i].Name != w.Name || bm.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, catalogue %q", i, bm.Workloads[i], w.Name)
		}
		if lookupWorkload(w.Name) == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	setup := false
	for i, m := range endToEnd {
		g := bm.EndToEnd[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end_to_end %d: %+v, catalogue %+v", i, g, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	for i, m := range perLayer {
		if g := bm.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per_layer %d: %+v, catalogue %+v", i, g, m)
		}
	}
}

// quick runs one 1/20-scale pass in this process.
func quick(t *testing.T, workload string, mod func(*runOpts)) *runResult {
	t.Helper()
	o := runOpts{workload: workload, seed: defaultSeed, quick: true}
	if mod != nil {
		mod(&o)
	}
	r := runOne(o)
	if r.Error != "" {
		t.Fatalf("%s: %s", workload, r.Error)
	}
	return r
}

func wantMetrics(t *testing.T, r *runResult, infos []metricInfo) {
	t.Helper()
	if len(r.Metrics) != len(infos) {
		t.Errorf("%s: %d metrics emitted, %d named", r.Workload, len(r.Metrics), len(infos))
	}
	for _, mi := range infos {
		if v, ok := r.Metrics[mi.Name]; !ok || v.Unit != mi.Unit {
			t.Errorf("%s: metric %s [%s] missing or in the wrong unit: %+v", r.Workload, mi.Name, mi.Unit, v)
		}
	}
	var line struct {
		Correct           bool
		Attempted, Failed uint64
		Metrics           map[string]metricValue
	}
	if err := json.Unmarshal([]byte(contractLine(r)), &line); err != nil || len(line.Metrics) != len(infos) {
		t.Errorf("%s: contract line does not parse back: %v", r.Workload, err)
	}
}

// TestQuickPass runs every workload at 1/20 scale, untraced and traced, and
// checks what the benchmark promises about its own output.
func TestQuickPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	fingerprint := map[string]string{}
	for _, w := range workloadCatalogue {
		first := quick(t, w.Name, nil)
		fingerprint[w.Name] = first.Fingerprint
		if !first.Correct || first.Failed != 0 || first.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d checks=%v", w.Name, first.Correct, first.Failed, first.Attempted, first.Checks)
		}
		wantMetrics(t, first, endToEnd)
		for _, mi := range endToEnd {
			if first.Metrics[mi.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, mi.Name, first.Metrics[mi.Name].Value)
			}
		}

		// Same seed, same simulated statistics; another seed, other ones.
		if again := quick(t, w.Name, nil); again.Fingerprint != first.Fingerprint {
			t.Errorf("%s: two runs of one seed gave fingerprints %s and %s", w.Name, first.Fingerprint, again.Fingerprint)
		}
		if other := quick(t, w.Name, func(o *runOpts) { o.seed++ }); other.Fingerprint == first.Fingerprint {
			t.Errorf("%s: a second seed left the fingerprint at %s", w.Name, first.Fingerprint)
		}

		// The traced run emits the per-layer set and, observers being
		// passive, simulates exactly what the untraced run did.
		traced := quick(t, w.Name, func(o *runOpts) { o.trace = true })
		wantMetrics(t, traced, perLayer)
		if traced.Fingerprint != first.Fingerprint {
			t.Errorf("%s: traced fingerprint %s, untraced %s", w.Name, traced.Fingerprint, first.Fingerprint)
		}
		if len(traced.Spans) == 0 || !traced.Correct {
			t.Errorf("%s: traced run: %d span names, checks %v", w.Name, len(traced.Spans), traced.Checks)
		}
	}
	if a, b := fingerprint["rand4k"], fingerprint["rand4k-telemetry"]; a != b {
		t.Errorf("rand4k (%s) and rand4k-telemetry (%s) simulated different things: observers are not passive", a, b)
	}

	// Stepping the clock with Env.RunUntil must not perturb the model: one
	// RunUntilEvent drive gives the same statistics.
	for _, name := range []string{"rand4k", "apps-mixed"} {
		if whole := quick(t, name, func(o *runOpts) { o.noSlice = true }); whole.Fingerprint != fingerprint[name] {
			t.Errorf("%s: sliced fingerprint %s, unsliced %s", name, fingerprint[name], whole.Fingerprint)
		}
	}

	// A failing I/O must show.
	planted := quick(t, "rand4k", func(o *runOpts) { o.plantFail = true })
	if planted.Failed == 0 || planted.IOFailShare <= 0 || planted.Correct {
		t.Errorf("planted out-of-range read went unseen: failed=%d share=%v correct=%v", planted.Failed, planted.IOFailShare, planted.Correct)
	}
}

// TestRecoveredPanicIsAFailedRun: a panic inside one of the benchmark's
// simulation processes must come back as a failed run, not take the process
// down.
func TestRecoveredPanicIsAFailedRun(t *testing.T) {
	w := rand4k(false)
	w.phases[0].run = func(*sim.Proc, *rig, int) phaseOut { panic("planted") }
	_, err := w.run(runOpts{workload: "rand4k", seed: 1, quick: true, setups: 1}, nil)
	if err == nil || !strings.Contains(err.Error(), "planted") {
		t.Fatalf("want the planted panic as an error, got %v", err)
	}
}

func TestSpread(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{5}, 0},
		{[]float64{9, 11}, 0.2},
		{[]float64{8, 9, 10, 11, 12}, 0.2},
	} {
		if got := spread(c.v); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("spread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}
