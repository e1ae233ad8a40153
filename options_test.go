package bmstore

import (
	"strings"
	"testing"

	"bmstore/internal/fault"
	"bmstore/internal/obs"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/sim"
	"bmstore/internal/trace"
)

// TestOptionsCompose checks the functional-options constructor: each With*
// lands on the matching (unexported) Config field, WithFaults accumulates,
// and nil options are ignored.
func TestOptionsCompose(t *testing.T) {
	tr := trace.NewDigest()
	reg := obs.NewRegistry()
	rule := fault.Rule{Point: fault.SSDMediaRead, Nth: 1, Count: 1}

	cfg := DefaultConfig().With(
		WithTrace(tr),
		WithMetrics(reg),
		WithFaults(rule),
		nil,
	)
	if cfg.tracer != tr {
		t.Error("WithTrace did not attach the tracer")
	}
	if cfg.metrics != reg {
		t.Error("WithMetrics did not attach the registry")
	}
	if len(cfg.faults) != 1 || cfg.faults[0].Point != fault.SSDMediaRead {
		t.Errorf("WithFaults did not append the rule: %+v", cfg.faults)
	}

	// WithFaults appends; two applications accumulate.
	cfg = cfg.With(WithFaults(rule))
	if len(cfg.faults) != 2 {
		t.Errorf("second WithFaults should append, got %d rules", len(cfg.faults))
	}
}

// TestOptionsConstructor checks the wiring end to end: a testbed built from
// a Config with the options applied up front (Config.With, what sweep
// drivers pass around) behaves as one handed the options at construction —
// same trace digest, same attached observability.
func TestOptionsConstructor(t *testing.T) {
	run := func(tb *Testbed) {
		tb.Run(func(p *sim.Proc) {
			if err := tb.Console.CreateNamespace(p, "v", 1<<30, []int{0}); err != nil {
				t.Fatal(err)
			}
		})
	}

	trA, trB := trace.NewDigest(), trace.NewDigest()
	tbA, err := NewBMStoreTestbed(DefaultConfig().With(WithTrace(trA)))
	if err != nil {
		t.Fatal(err)
	}
	run(tbA)

	tbB, err := NewBMStoreTestbed(DefaultConfig(), WithTrace(trB))
	if err != nil {
		t.Fatal(err)
	}
	run(tbB)

	if trA.Digest() != trB.Digest() {
		t.Errorf("constructor options diverged from Config.With: %s vs %s", trA.Digest(), trB.Digest())
	}
	if tbB.Metrics() != nil {
		t.Error("testbed without WithMetrics/WithTimeline reports a registry")
	}
}

// TestWithTimelineAutoRegistry checks that WithTimeline alone is enough:
// the constructor builds a metrics registry carrying the recorder, exposed
// via Testbed.Metrics.
func TestWithTimelineAutoRegistry(t *testing.T) {
	tb, err := NewBMStoreTestbed(DefaultConfig(),
		WithTimeline(timeline.Config{SampleEvery: 1, WorstK: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Metrics() == nil {
		t.Fatal("WithTimeline did not auto-build a metrics registry")
	}
	if tb.Metrics().Timeline() == nil {
		t.Error("auto-built registry records no timelines")
	}
}

// TestWithTimelineRegistryConflict checks Validate's rejection of the one
// combination that would silently drop data: an explicit registry that
// records no timelines combined with WithTimeline.
func TestWithTimelineRegistryConflict(t *testing.T) {
	_, err := NewBMStoreTestbed(DefaultConfig(),
		WithMetrics(obs.NewRegistry()),
		WithTimeline(timeline.Config{SampleEvery: 1}))
	if err == nil {
		t.Fatal("constructor accepted WithTimeline + a timeline-less registry")
	}
	if !strings.Contains(err.Error(), "Timeline") {
		t.Errorf("error should point at the timeline mismatch, got: %v", err)
	}

	// The matching registry is fine.
	reg := obs.New(obs.Options{
		SeriesInterval: obs.DefaultSeriesInterval,
		Timeline:       timeline.Config{SampleEvery: 1},
	})
	if _, err := NewBMStoreTestbed(DefaultConfig(), WithMetrics(reg),
		WithTimeline(timeline.Config{SampleEvery: 1})); err != nil {
		t.Errorf("constructor rejected a timeline-recording registry: %v", err)
	}
}

// TestValidateRejectsDataHazardsWithoutCapture: satellite guard — arming
// silent-data-damage rules on a rig that carries no payload bytes is a
// configuration error, not a silently-inert campaign.
func TestValidateRejectsDataHazardsWithoutCapture(t *testing.T) {
	cfg := DefaultConfig().With(WithFaults(fault.Rule{Point: fault.MediaCorrupt, Target: "PHLJ0000", Count: 1}))
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "CaptureData") {
		t.Fatalf("want CaptureData validation error, got %v", err)
	}
	cfg.CaptureData = true
	if err := cfg.Validate(); err != nil {
		t.Fatalf("CaptureData on should validate: %v", err)
	}
}
