package experiments

import (
	"bytes"
	"reflect"
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

// TestCrashPointPathEquivalence holds the crash rigs — engine-crash rule,
// recovery manager, tracer — to the classic reference path at every crash
// point of one seed: after dropping the kernel's own "sim" records the two
// paths' trace dumps must be byte-equal (every doorbell, dispatch, media
// issue, the crash and the recovery, timeouts and retries), and the point
// reports — oracle verdicts, driver books, journal replay, recovery time —
// must match field for field.
func TestCrashPointPathEquivalence(t *testing.T) {
	const seed, horizon = 1, 5 * sim.Second
	instants, err := discoverCrashInstants(seed, horizon)
	if err != nil {
		t.Fatal(err)
	}
	run := func(in crashInstant, opts ...bmstore.Option) (string, uint64, crash.PointReport) {
		var dump bytes.Buffer
		tr := trace.New(trace.Options{Dump: &dump})
		pt := runCrashPoint(seed, in, crash.Config{}, tr, horizon, opts...)
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		pt.Digest = "" // folds the kernel records, which legitimately differ
		var recs strings.Builder
		for _, ln := range strings.SplitAfter(dump.String(), "\n") {
			if f := strings.Fields(ln); len(f) > 1 && f[1] == "sim" {
				continue
			}
			recs.WriteString(ln)
		}
		return recs.String(), tr.Events(), pt
	}
	for _, in := range instants {
		fused, nFused, ptFused := run(in)
		classic, nClassic, ptClassic := run(in, bmstore.WithClassicPath())
		if !ptFused.Injected || !strings.Contains(fused, " crash ") || !strings.Contains(fused, " recover ") {
			t.Errorf("%s: the crash or the recovery left no record", in.Stage)
		}
		if fused != classic {
			t.Errorf("%s: component records diverged between the fused and classic paths (%d vs %d bytes)",
				in.Stage, len(fused), len(classic))
		}
		if !reflect.DeepEqual(ptFused, ptClassic) {
			t.Errorf("%s: point reports diverged:\nfused:   %+v\nclassic: %+v", in.Stage, ptFused, ptClassic)
		}
		if nFused >= nClassic {
			t.Errorf("%s: fused run traced %d events, classic %d; the crash rig is not on the fused path",
				in.Stage, nFused, nClassic)
		}
	}
}

// TestTracedSweepRigsTakeFusedPath: a -trace-digest sweep hands every rig a
// tracer, and a faulted sweep an injector; neither may move a rig off the
// fused data path any more.
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
	if !tb.Env.FastPath() {
		t.Fatal("a traced, faulted sweep rig is off the fused path")
	}
}
