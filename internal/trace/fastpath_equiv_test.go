// Path-equivalence proof for traced rigs. Every rig now runs the fused
// data path, tracer attached or not, so a digest no longer witnesses the
// kernel records of per-command processes (they do not exist any more). What
// it must still witness, unchanged, is every *component* record: the host
// driver's doorbells and CQEs, the engine's dispatch/map/route, the
// controller's MI exchanges, the SSD's issue/complete, every fired fault.
// These tests run each pinned determinism rig on the default path and on the
// classic reference path (WithClassicPath) with a dumping tracer, drop the
// "sim" subsystem lines from both dumps, and require the rest byte-equal.
package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"bmstore"
	"bmstore/internal/sim"
	"bmstore/internal/trace"
)

// componentRecords drops the kernel's own ("sim") lines from a trace dump:
// what is left is timestamps, kinds, words and details of every component
// record, in emission order.
func componentRecords(dump []byte) string {
	var b strings.Builder
	for _, ln := range strings.SplitAfter(string(dump), "\n") {
		if f := strings.Fields(ln); len(f) > 1 && f[1] == "sim" {
			continue
		}
		b.WriteString(ln)
	}
	return b.String()
}

// tracedRun executes s with a dumping tracer and returns the component
// record stream, the total event count and the rig's final clock.
func tracedRun(t *testing.T, s bmstore.Scenario, opts ...bmstore.Option) (records string, events uint64, end sim.Time) {
	t.Helper()
	var dump bytes.Buffer
	tr := trace.New(trace.Options{Dump: &dump})
	tb := s.Run(append(opts, bmstore.WithTrace(tr))...)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return componentRecords(dump.Bytes()), tr.Events(), tb.Env.Now()
}

func TestFusedClassicComponentRecordEquivalence(t *testing.T) {
	for name, s := range allScenarios() {
		s := s
		t.Run(name, func(t *testing.T) {
			fused, nFused, endFused := tracedRun(t, s)
			classic, nClassic, endClassic := tracedRun(t, s, bmstore.WithClassicPath())
			if endFused != endClassic {
				t.Fatalf("final clocks diverged: fused %d, classic %d", endFused, endClassic)
			}
			if fused != classic {
				t.Fatalf("component records diverged between the fused and classic paths (%d vs %d bytes)%s",
					len(fused), len(classic), firstDiff(fused, classic))
			}
			if !strings.Contains(fused, " host ") {
				t.Fatal("the dump carries no host records; the rig traced nothing")
			}
			// The kernel records are what legitimately differs: the classic
			// path spawns and resumes a process per command.
			if nFused >= nClassic {
				t.Errorf("fused run traced %d events, classic %d; a traced rig is not on the fused path", nFused, nClassic)
			}
		})
	}
}

// firstDiff renders the first differing line of two dumps for the failure
// message.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return "\nfirst difference at record " + strings.TrimSpace(la[i]) + "\n                     vs " + strings.TrimSpace(lb[i])
		}
	}
	return ""
}
