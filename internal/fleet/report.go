package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"bmstore/internal/stats"
)

// Result is the full outcome of a fleet run: configuration echo, per-host
// results in host order, and the fleet-wide SLO rollup. Everything the
// report prints is an exported field, so a Result round-trips through JSON
// (WriteJSON / Load) and renders the same report offline (bmsctl fleet).
type Result struct {
	Hosts       int        `json:"hosts"`
	WaveSize    int        `json:"wave_size"`
	Waves       int        `json:"waves"`
	Seed        int64      `json:"seed"`
	SSDsPerHost int        `json:"ssds_per_host"`
	FWCommitMS  [2]float64 `json:"fw_commit_ms"`  // [min, max] activation window
	PauseBandMS [2]float64 `json:"pause_band_ms"` // [lo, hi] acceptance band

	// AbortedWave is the wave index whose health gate tripped, -1 if the
	// rollout completed. Hosts in waves after it are Skipped.
	AbortedWave int `json:"aborted_wave"`

	PerHost []HostResult `json:"per_host"`

	// Fleet-wide SLO rollup over every simulated (non-skipped) host.
	Ops    uint64  `json:"ops"`
	Errs   uint64  `json:"errs"`
	P50US  float64 `json:"p50_us"` // fleet-wide, merged across hosts
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`

	// Pause window statistics across all completed upgrades, milliseconds.
	PauseMinMS    float64 `json:"pause_min_ms"`
	PauseMedianMS float64 `json:"pause_median_ms"`
	PauseMaxMS    float64 `json:"pause_max_ms"`
	Upgrades      int     `json:"upgrades"`

	// FleetDigest folds the per-host determinism digests (sorted by host)
	// into one line a golden file can pin.
	FleetDigest string `json:"fleet_digest"`
}

// Passed reports whether the rollout completed with every host healthy.
func (r *Result) Passed() bool { return r.AbortedWave < 0 }

// rollup computes the fleet-wide SLO block from the per-host results.
func (r *Result) rollup() {
	merged := &stats.Hist{}
	var pauses []float64
	for i := range r.PerHost {
		h := &r.PerHost[i]
		if h.Skipped {
			continue
		}
		r.Ops += h.Ops
		r.Errs += h.Errs
		if h.hist != nil {
			merged.Merge(h.hist)
		}
		for _, u := range h.Upgrades {
			if u.Err == "" {
				pauses = append(pauses, u.IOPauseMS)
			}
		}
	}
	if merged.N() > 0 {
		r.P50US = float64(merged.Percentile(0.50)) / 1e3
		r.P99US = float64(merged.Percentile(0.99)) / 1e3
		r.P999US = float64(merged.Percentile(0.999)) / 1e3
	}
	sort.Float64s(pauses)
	r.Upgrades = len(pauses)
	if len(pauses) > 0 {
		r.PauseMinMS = pauses[0]
		r.PauseMedianMS = pauses[len(pauses)/2]
		r.PauseMaxMS = pauses[len(pauses)-1]
	}
	r.FleetDigest = fleetDigest(r.PerHost)
}

// WriteReport renders the human fleet report. The output is a pure
// function of the Result fields — byte-identical for any parallelism —
// and doubles as the serial-vs-parallel comparison artifact in CI.
func (r *Result) WriteReport(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("fleet: %d hosts, %d-host waves, seed %d, %d SSD/host, fw commit %.0f-%.0fms, pause band [%.0f, %.0f]ms\n",
		r.Hosts, r.WaveSize, r.Seed, r.SSDsPerHost,
		r.FWCommitMS[0], r.FWCommitMS[1], r.PauseBandMS[0], r.PauseBandMS[1])
	for _, h := range r.PerHost {
		bw.printf("  host %3d wave %2d seed %-6d: ", h.Host, h.Wave, h.Seed)
		if h.Skipped {
			bw.printf("SKIPPED (rollout aborted in wave %d) | placement %s\n",
				r.AbortedWave, placementString(h.Tenants))
			continue
		}
		status := "ok"
		if !h.Healthy {
			status = "UNHEALTHY"
		}
		bw.printf("%-9s | %s | ops %d errs %d | p99 %.1fus | pauses", status,
			placementString(h.Tenants), h.Ops, h.Errs, h.P99US)
		for _, u := range h.Upgrades {
			if u.Err != "" {
				bw.printf(" ssd%d:ERR", u.SSD)
			} else {
				bw.printf(" %.0fms", u.IOPauseMS)
			}
		}
		bw.printf(" | %s\n", h.Digest)
		if !h.Healthy {
			bw.printf("           reason: %s\n", h.Reason)
			bw.printf("           replay: bmsctl fleet-run -hosts %d -seed %d -host %d\n",
				r.Hosts, r.Seed, h.Host)
		}
	}
	bw.printf("SLO: ops %d, errs %d, p50 %.1fus, p99 %.1fus, p99.9 %.1fus (fleet-wide)\n",
		r.Ops, r.Errs, r.P50US, r.P99US, r.P999US)
	bw.printf("pauses: %d upgrades, min %.0fms median %.0fms max %.0fms\n",
		r.Upgrades, r.PauseMinMS, r.PauseMedianMS, r.PauseMaxMS)
	bw.printf("fleet digest: %s\n", r.FleetDigest)
	if r.Passed() {
		bw.printf("verdict: PASS — rolling upgrade completed, zero-error guarantee held on all %d hosts\n", r.Hosts)
	} else {
		bw.printf("verdict: FAIL — wave %d tripped the health gate, %d host(s) never upgraded\n",
			r.AbortedWave, r.skippedCount())
	}
	return bw.err
}

// WriteReport renders a single replayed host — the `fleet-run -host K` view,
// with the same fields the fleet report prints for that host.
func (h *HostResult) WriteReport(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("host %d wave %d seed %d: placement %s\n", h.Host, h.Wave, h.Seed, placementString(h.Tenants))
	bw.printf("  ops %d errs %d | p50 %.1fus p99 %.1fus p99.9 %.1fus\n", h.Ops, h.Errs, h.P50US, h.P99US, h.P999US)
	for _, u := range h.Upgrades {
		if u.Err != "" {
			bw.printf("  upgrade ssd%d: ERROR %s\n", u.SSD, u.Err)
			continue
		}
		bw.printf("  upgrade ssd%d -> %s: total %.0fms, pause %.0fms, reset %.0fms, engine %.0fms\n",
			u.SSD, u.Firmware, u.TotalMS, u.IOPauseMS, u.SSDResetMS, u.EngineProcMS)
	}
	bw.printf("  counters: %+v\n", h.Counters)
	bw.printf("  digest: %s\n", h.Digest)
	if h.Healthy {
		bw.printf("  verdict: healthy\n")
	} else {
		bw.printf("  verdict: UNHEALTHY — %s\n", h.Reason)
	}
	return bw.err
}

func (r *Result) skippedCount() int {
	n := 0
	for _, h := range r.PerHost {
		if h.Skipped {
			n++
		}
	}
	return n
}

// WriteJSON serialises the Result for offline inspection (bmsctl fleet).
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Load reads a Result previously written with WriteJSON. A result with no
// hosts, or whose host list disagrees with Hosts, is an error: a truncated
// export must not read as a passed rollout.
func Load(rd io.Reader) (*Result, error) {
	var r Result
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("fleet: decode result: %w", err)
	}
	if r.Hosts <= 0 {
		return nil, fmt.Errorf("fleet: result has no hosts (hosts %d)", r.Hosts)
	}
	if len(r.PerHost) != r.Hosts {
		return nil, fmt.Errorf("fleet: result lists %d hosts, header says %d", len(r.PerHost), r.Hosts)
	}
	for i, h := range r.PerHost {
		if h.Host != i {
			return nil, fmt.Errorf("fleet: host %d listed at position %d", h.Host, i)
		}
	}
	return &r, nil
}

// errWriter folds the repetitive fmt.Fprintf error handling of a long
// report into one sticky error.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}
