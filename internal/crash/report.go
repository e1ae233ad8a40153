package crash

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// PointReport is the outcome of one crash-point run: the card was killed
// at one pipeline-stage instant and the workload verified through
// recovery.
type PointReport struct {
	Stage   string `json:"stage"`    // timeline stage mark the instant came from
	CrashAt int64  `json:"crash_at"` // virtual-time crash instant (ns)
	// Injected reports whether the crash actually fired (a very late
	// instant can land after the workload drained).
	Injected bool `json:"injected"`

	Writes  int `json:"writes"`
	Reads   int `json:"reads"`
	InDoubt int `json:"in_doubt"` // writes whose episode ended indeterminate

	Timeouts   uint64 `json:"timeouts"`
	Retries    uint64 `json:"retries"`
	Stragglers uint64 `json:"stragglers"`
	Reclaimed  uint64 `json:"reclaimed"`

	RecoveryNS     int64 `json:"recovery_ns"` // RecoveredAt - CrashedAt (0 if no crash)
	Replayed       int   `json:"replayed"`
	DroppedJournal int   `json:"dropped_journal"`

	// Violations are oracle-detected data-integrity breaks (acked-write
	// loss, corruption, misdirection); Findings are invariant-checker
	// complaints about the books (CID accounting, recovery bounds). Both
	// must be empty on a healthy run.
	Violations []string `json:"violations,omitempty"`
	Findings   []string `json:"findings,omitempty"`

	Digest string `json:"digest"`
}

// SweepReport is one seed's full crash-point sweep.
type SweepReport struct {
	Seed   int64         `json:"seed"`
	Points []PointReport `json:"points"`
	// Digest folds every point digest — byte-stable across runs, seeds
	// being equal.
	Digest string `json:"digest"`
}

// Clean reports whether every point in the sweep passed.
func (r *SweepReport) Clean() bool {
	for _, p := range r.Points {
		if len(p.Violations) > 0 || len(p.Findings) > 0 {
			return false
		}
	}
	return true
}

// LoadSweeps reads a `bmsctl crash-sweep -json` export: either a single SweepReport
// object (one-seed sweep) or an array of them (multi-seed sweep). A null
// sweep or one with no points is an error, not a clean sweep: a truncated
// export must not read as a passed gate.
func LoadSweeps(path string) ([]*SweepReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	reps, err := decodeSweeps(b)
	if err != nil {
		return nil, fmt.Errorf("crash: %s: %w", path, err)
	}
	return reps, nil
}

// decodeSweeps parses and checks the bytes of a `crash-sweep -json` export.
func decodeSweeps(b []byte) ([]*SweepReport, error) {
	var reps []*SweepReport
	if t := bytes.TrimLeft(b, " \t\r\n"); len(t) > 0 && t[0] == '[' {
		if err := json.Unmarshal(b, &reps); err != nil {
			return nil, err
		}
	} else {
		var one SweepReport
		if err := json.Unmarshal(b, &one); err != nil {
			return nil, err
		}
		reps = []*SweepReport{&one}
	}
	if len(reps) == 0 {
		return nil, errors.New("holds no sweep reports")
	}
	for i, r := range reps {
		if r == nil {
			return nil, fmt.Errorf("sweep %d is null", i)
		}
		if len(r.Points) == 0 {
			return nil, fmt.Errorf("sweep %d (seed %d) has no points", i, r.Seed)
		}
	}
	return reps, nil
}

// WriteText renders the sweep as a deterministic human-readable table.
func (r *SweepReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "crash-point sweep  seed=%d  points=%d  digest=%s\n", r.Seed, len(r.Points), r.Digest)
	fmt.Fprintf(w, "%-14s %12s %4s %6s %7s %8s %7s %9s %10s  %s\n",
		"stage", "crash@ns", "inj", "writes", "indoubt", "timeouts", "retries", "reclaimed", "recover_ns", "status")
	for _, p := range r.Points {
		inj := "-"
		if p.Injected {
			inj = "y"
		}
		status := "ok"
		if n := len(p.Violations) + len(p.Findings); n > 0 {
			status = fmt.Sprintf("FAIL(%d)", n)
		}
		fmt.Fprintf(w, "%-14s %12d %4s %6d %7d %8d %7d %9d %10d  %s\n",
			p.Stage, p.CrashAt, inj, p.Writes, p.InDoubt,
			p.Timeouts, p.Retries, p.Reclaimed, p.RecoveryNS, status)
		for _, v := range p.Violations {
			fmt.Fprintf(w, "    violation: %s\n", v)
		}
		for _, f := range p.Findings {
			fmt.Fprintf(w, "    finding:   %s\n", f)
		}
	}
}
