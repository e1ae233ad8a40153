package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// prefixRounds is how many rounds every run executes whatever its time
// budget. Sim-domain metrics and the fingerprint are taken over exactly
// these rounds, so they are equal across repeats of one commit on any
// host; host-domain metrics use every round of the run.
const prefixRounds = 2

// lateFactor ends a run that has taken this many times --seconds, however
// many of its rounds are left.
const lateFactor = 2

// runOpts selects one run of one workload.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64 // host time the measured region should last; 0 = prefix rounds only
	rounds   int     // rounds that fill it on the reference box (set by runOne)
	trace    bool    // attach the registry, record spans, run the layer probes
	quick    bool    // 1/20-scale phases, for the tier-1 test
	setups   int     // set-up repeats; setup_s is their median

	// Test hooks: drive the rig with one RunUntilEvent instead of slices,
	// and plant one out-of-range read so a failing I/O is seen to count.
	noSlice   bool
	plantFail bool
}

// measurement is what a workload hands back: raw samples, not metrics.
type measurement struct {
	// Host times, raw and in reference seconds (see ref.go).
	setupS, setupRefS []float64   // one entry per set-up
	roundS, roundRefS []float64   // one entry per round
	phaseUS           [][]float64 // per phase (fleet: one), a host us per I/O sample per round, reference time
	refScales         []float64   // every scale applied: how fast the machine read, 1 = nominal
	sliceUS           []float64   // raw host us per I/O of every slice, for the p95
	wallS, wallRefS   float64     // measured region: the sum of the rounds
	ios               uint64      // I/Os completed in the measured region
	events            uint64      // kernel events fired in the measured region
	mallocs           uint64
	// liveHeap is the heap still in use after a forced collection at the
	// end of the prefix rounds: what the simulator retains at a fixed point
	// of simulated work, whatever the collector's timing was.
	liveHeap uint64

	// Prefix rounds: exact for a seed.
	prefixIOs    uint64
	prefixEvents uint64
	paperErrPct  float64
	fp           []string // fingerprint lines

	attempted, failed uint64
	checks            []string           // output checks that failed
	layer             map[string]float64 // per-layer metrics gathered along the way (traced)
}

func (m *measurement) addSetup(s, scale float64) {
	m.setupS, m.setupRefS = append(m.setupS, s), append(m.setupRefS, s*scale)
	m.refScales = append(m.refScales, scale)
}

// addRound records one round: its wall time and one host us per I/O sample
// per phase (0 where no slice fitted into the phase).
func (m *measurement) addRound(s float64, phaseUS []float64, scale float64) {
	m.roundS, m.roundRefS = append(m.roundS, s), append(m.roundRefS, s*scale)
	m.refScales = append(m.refScales, scale)
	m.wallS, m.wallRefS = m.wallS+s, m.wallRefS+s*scale
	for i, us := range phaseUS {
		if us > 0 {
			m.phaseUS[i] = append(m.phaseUS[i], us*scale)
		}
	}
}

func (m *measurement) checkf(ok bool, format string, args ...any) {
	if !ok {
		m.checks = append(m.checks, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run as the results file stores it. The driver sees only
// the contract line (see contractLine).
type runResult struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Seconds     float64                `json:"seconds"`
	Traced      bool                   `json:"traced"`
	Correct     bool                   `json:"correct"`
	Attempted   uint64                 `json:"attempted"`
	Failed      uint64                 `json:"failed"`
	IOFailShare float64                `json:"io_fail_share"`
	PaperErrPct float64                `json:"paper_err_pct"`
	PeakRSSMiB  float64                `json:"peak_rss_mib"`
	Fingerprint string                 `json:"sim_fingerprint"`
	Metrics     map[string]metricValue `json:"metrics"`
	Rounds      int                    `json:"rounds"`
	RoundS      []float64              `json:"round_wall_s"` // raw host wall of each round, in order
	WallRawS    float64                `json:"wall_raw_s"`   // their median; wall_s is the same in reference seconds
	MachineSlow float64                `json:"machine_slow"` // median reference-kernel reading / nominal: 1.1 = the box ran 10 % slow
	Slices      int                    `json:"slices"`       // timed slices in all
	IOs         uint64                 `json:"ios"`
	WallS       float64                `json:"measured_wall_s"`     // sum of the rounds, raw
	WallRefS    float64                `json:"measured_wall_ref_s"` // and in reference seconds
	Phases      []phaseSummary         `json:"phases,omitempty"`
	Checks      []string               `json:"failed_checks,omitempty"`
	Spans       []spanTotal            `json:"spans,omitempty"`
	Error       string                 `json:"error,omitempty"`
}

// phaseSummary is the distribution behind one phase's share of
// host_us_per_io: one host us per I/O sample per round.
type phaseSummary struct {
	N   int     `json:"n"` // rounds
	Min float64 `json:"min_us"`
	P50 float64 `json:"p50_us"`
	Max float64 `json:"max_us"`
}

// failedRun is the result of a run that panicked or whose child died: every
// operation counts as failed.
func failedRun(o runOpts, err string) *runResult {
	return &runResult{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Attempted: 1, Failed: 1, IOFailShare: 1, Error: err, Metrics: map[string]metricValue{}}
}

// assemble turns a measurement into named metrics. With trace off the
// metrics are the end-to-end set; with trace on, the per-layer set.
func assemble(o runOpts, m *measurement, sp *spans) *runResult {
	r := &runResult{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Attempted: m.attempted, Failed: m.failed,
		PaperErrPct: m.paperErrPct, PeakRSSMiB: peakRSSMiB(), Rounds: len(m.roundS), RoundS: m.roundS, WallRawS: median(m.roundS), IOs: m.ios, WallS: m.wallS, WallRefS: m.wallRefS,
		Checks: m.checks, Metrics: make(map[string]metricValue),
	}
	if r.Attempted == 0 {
		r.Attempted = 1
		r.Failed = 1
		r.Checks = append(r.Checks, "no operation was attempted")
	}
	r.Correct = len(r.Checks) == 0 && r.Failed == 0
	r.IOFailShare = float64(r.Failed) / float64(r.Attempted)
	if !r.Correct && r.Failed == 0 {
		r.IOFailShare = 1 // a failed output check voids the run
	}
	sum := sha256.Sum256([]byte(strings.Join(m.fp, "\n")))
	r.Fingerprint = hex.EncodeToString(sum[:])[:32]

	var phaseMedians []float64
	for _, s := range m.phaseUS {
		if len(s) > 0 {
			phaseMedians = append(phaseMedians, median(s))
			r.Phases = append(r.Phases, phaseSummary{len(s), percentile(s, 0), median(s), percentile(s, 1)})
		}
	}
	r.Slices = len(m.sliceUS)
	var slow []float64
	for _, sc := range m.refScales {
		slow = append(slow, 1/sc)
	}
	r.MachineSlow = median(slow)
	usPerIO := mean(phaseMedians)

	vals := map[string]float64{}
	if !o.trace {
		vals["setup_s"] = median(m.setupRefS)
		vals["wall_s"] = median(m.roundRefS)
		vals["host_us_per_io"] = usPerIO
		vals["live_heap_mib"] = float64(m.liveHeap) / (1 << 20)
		vals["allocs_per_io"] = ratio(float64(m.mallocs), float64(m.ios))
		vals["events_per_io"] = ratio(float64(m.prefixEvents), float64(m.prefixIOs))
		vals["paper_match_pct"] = math.Max(100-m.paperErrPct, 0.01)
		for _, mi := range endToEnd {
			r.Metrics[mi.Name] = metricValue{vals[mi.Name], mi.Unit}
		}
		return r
	}
	for k, v := range m.layer {
		vals[k] = v
	}
	vals["sim.host_ns_per_event"] = ratio(m.wallS*1e9, float64(m.events))
	vals["sim.slice_us_per_io_p95"] = percentile(m.sliceUS, 0.95)
	vals["bmstore.build_ms"] = sp.medianMS("bmstore.build")
	vals["controller.provision_ms"] = sp.medianMS("controller.provision")
	vals["host.attach_ms"] = sp.medianMS("host.attach")
	vals["apps.load_s"] = sp.medianMS("apps.load") / 1e3
	for _, mi := range perLayer {
		r.Metrics[mi.Name] = metricValue{vals[mi.Name], mi.Unit}
	}
	r.Spans = sp.summary()
	return r
}

// contractLine renders the one JSON object the driver reads from the last
// line of standard output.
func contractLine(r *runResult) string {
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // only a NaN or Inf metric can do this
	}
	return string(b)
}

// --- small statistics ---

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile interpolates linearly between order statistics; 0 when empty.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// errPct is |ours − paper| / paper in percent.
func errPct(ours, paper float64) float64 { return math.Abs(ours-paper) / paper * 100 }

// --- process and machine ---

// liveHeapBytes collects garbage and returns the bytes of heap objects
// that survived.
func liveHeapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakRSSMiB reads VmHWM, the process's peak resident set; 0 where /proc
// does not offer it.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// envInfo is the machine and build a results file was taken on.
type envInfo struct {
	GitCommit  string  `json:"git_commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg1   float64 `json:"loadavg_1min_at_start"`
}

func readEnv() envInfo {
	e := envInfo{GitCommit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: benchProcs, NProc: runtime.NumCPU(), CPUModel: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.GitCommit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return e
}
