package experiments

import (
	"bytes"
	"strings"
	"testing"

	"bmstore"
	"bmstore/internal/crash"
	"bmstore/internal/engine"
	"bmstore/internal/fault"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/sim"
	"bmstore/internal/trace"
)

// TestCrashSweepClean is the tentpole gate: kill the engine at every
// pipeline-stage boundary and verify that no acked write is lost, the
// in-doubt window is classified, the CID books balance, and recovery is
// bounded — at every point.
func TestCrashSweepClean(t *testing.T) {
	sw, err := RunCrashSweep(CrashSweepOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := sw.Reports[0]
	if len(rep.Points) != int(timeline.NumPoints) {
		t.Fatalf("swept %d points, want %d", len(rep.Points), timeline.NumPoints)
	}
	injected := 0
	for i, p := range rep.Points {
		if len(p.Violations) > 0 || len(p.Findings) > 0 {
			t.Errorf("point %d (%s @%dns): violations=%v findings=%v",
				i, p.Stage, p.CrashAt, p.Violations, p.Findings)
		}
		if p.Injected {
			injected++
			if p.Timeouts == 0 {
				t.Errorf("point %d (%s): crash fired but no command ever timed out", i, p.Stage)
			}
			if p.RecoveryNS <= 0 {
				t.Errorf("point %d (%s): no recovery time recorded", i, p.Stage)
			}
		}
		if p.Writes == 0 || p.Reads == 0 {
			t.Errorf("point %d (%s): no coverage (w=%d r=%d)", i, p.Stage, p.Writes, p.Reads)
		}
	}
	if injected != len(rep.Points) {
		t.Errorf("crash fired at %d/%d points", injected, len(rep.Points))
	}
	if sw.Digest == "" || rep.Digest == "" {
		t.Fatalf("missing digests: sweep=%q seed=%q", sw.Digest, rep.Digest)
	}
}

// TestCrashSweepDeterminism pins the digest across serial and parallel
// execution: the sweep must be a pure function of (seed, crash config).
func TestCrashSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	serial, err := RunCrashSweep(CrashSweepOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCrashSweep(CrashSweepOptions{Seed: 1, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Digest != par.Digest {
		t.Fatalf("digest moved with parallelism: serial %s != parallel %s", serial.Digest, par.Digest)
	}
	for i := range serial.Reports[0].Points {
		a, b := serial.Reports[0].Points[i], par.Reports[0].Points[i]
		if a.Digest != b.Digest || a.Stage != b.Stage || a.CrashAt != b.CrashAt {
			t.Fatalf("point %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

// TestCrashSweepJournalTruncation plants a broken journal: the last
// records are dropped before replay, so their clobbered blocks stay zeroed
// and the oracle's no-acked-write-loss invariant MUST fire. This is the
// proof that the invariant is load-bearing — a recovery path that silently
// lost acked writes would fail exactly like this.
func TestCrashSweepJournalTruncation(t *testing.T) {
	pt, err := RunCrashPoint(1, int(timeline.PtNandStart), crash.Config{TruncateJournal: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Injected {
		t.Fatal("crash never fired")
	}
	if pt.DroppedJournal == 0 {
		t.Fatal("truncation dropped no journal records")
	}
	if len(pt.Violations) == 0 {
		t.Fatalf("journal truncated by %d records but the oracle caught nothing — the no-acked-write-loss invariant is not load-bearing", pt.DroppedJournal)
	}
	// A dropped tail record surfaces either as a lost write (block reads
	// as garbage/zeroes) or as a stale one (an earlier journal record for
	// the same physical block was replayed, resurfacing a superseded
	// generation). Both are acked-write loss.
	found := false
	for _, v := range pt.Violations {
		if strings.Contains(v, "lost") || strings.Contains(v, "stale") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a lost/stale-write violation, got %v", pt.Violations)
	}
}

// TestCrashSweepCheckpointTamper plants a stale/corrupt checkpoint: two
// chunk entries of the namespace map are swapped before restore, so
// post-recovery reads are misdirected and the oracle MUST catch it.
func TestCrashSweepCheckpointTamper(t *testing.T) {
	tamper := func(cp *engine.Checkpoint) {
		for i := range cp.Namespaces {
			ch := cp.Namespaces[i].Chunks
			if len(ch) >= 2 {
				ch[0], ch[1] = ch[1], ch[0]
			}
		}
	}
	pt, err := RunCrashPoint(1, int(timeline.PtNandStart), crash.Config{TamperCheckpoint: tamper}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Injected {
		t.Fatal("crash never fired")
	}
	if len(pt.Violations) == 0 {
		t.Fatal("checkpoint tampered but the oracle caught nothing — the restore path is not load-bearing")
	}
}

// TestCrashPointsCrashAndRecover runs the crash rig — engine-crash rule,
// recovery manager, tracer — at every crash point of one seed: each of the
// stage-boundary instants must inject the crash and leave both a `crash` and
// a `recover` record in the trace.
func TestCrashPointsCrashAndRecover(t *testing.T) {
	const seed, horizon = 1, 5 * sim.Second
	instants, err := discoverCrashInstants(seed, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(instants) != int(timeline.NumPoints) {
		t.Fatalf("probe run found %d crash instants, want the %d stage boundaries", len(instants), timeline.NumPoints)
	}
	for _, in := range instants {
		var dump bytes.Buffer
		tr := trace.New(trace.Options{Dump: &dump})
		pt := runCrashPoint(seed, in, crash.Config{}, tr, horizon)
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		if !pt.Injected || !strings.Contains(dump.String(), " crash ") || !strings.Contains(dump.String(), " recover ") {
			t.Errorf("%s: the crash or the recovery left no record", in.Stage)
		}
	}
}

// TestTracedSweepRigsTakeFusedPath: a -trace-digest sweep hands every rig a
// tracer, and a faulted sweep an injector; both reach the rig the harness
// configures, where they are probes on the data path.
func TestTracedSweepRigsTakeFusedPath(t *testing.T) {
	rules, err := fault.ParseSpec("media-slow,t=1h")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness(Fast(), 1, trace.NewSet(trace.Options{})).WithFaults(rules)
	tb, err := bmstore.NewBMStoreTestbed(h.config("fused/probe", 1))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Env.Tracer() == nil || tb.Env.Faults() == nil {
		t.Fatal("harness attached no tracer or no injector")
	}
}
