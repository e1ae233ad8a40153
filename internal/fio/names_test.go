package fio

import (
	"fmt"
	"testing"
)

// TestWorkerNamesKeepTheirFormat: the hand-built names are the ones
// fmt.Sprintf built before — the stream name is hashed into every worker's
// RNG seed, so one byte of difference moves every fio-driven golden — and the
// job process's name is its workers' old process names without the worker.
func TestWorkerNamesKeepTheirFormat(t *testing.T) {
	for _, spec := range []Spec{{Name: "seqr256", Seed: "round12"}, {Name: "x"}, {Name: "a/b", Seed: "-1"}} {
		for _, jw := range [][2]int{{0, 0}, {3, 9}, {15, 255}, {100, 1023}} {
			j, w := jw[0], jw[1]
			if got, want := string(spec.streamName(nil, j, w)), fmt.Sprintf("fio/%s/%s/j%d/w%d", spec.Seed, spec.Name, j, w); got != want {
				t.Errorf("stream name %q, want %q", got, want)
			}
			if got, want := string(spec.jobName([]byte("stale")[:0], j)), fmt.Sprintf("fio/%s/j%d", spec.Name, j); got != want {
				t.Errorf("job process name %q, want %q", got, want)
			}
		}
	}
}
