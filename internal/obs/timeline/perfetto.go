package timeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Chrome/Perfetto trace-event JSON export.
//
// The writer emits the legacy trace-event array format (displayTimeUnit +
// traceEvents) that both chrome://tracing and ui.perfetto.dev load directly.
// Every byte is deterministic: events are hand-serialized in a fixed order
// with fixed field order, timestamps are virtual-time microseconds rendered
// as exact %d.%03d decimal strings (never floats), and track identities
// derive from sorted rig names and a greedy deterministic lane assignment —
// so a given simulation always produces the identical file, serial or
// parallel, at any GOMAXPROCS.
//
// Track layout: one process per rig (pid = index in sorted rig order). In
// each process the sampled timelines occupy lanes 0.. and the worst-K set
// occupies lanes at worstLaneBase; each lane carries three threads (host /
// engine / device) so a request's stage slices stack under one another. A
// lane holds at most one request at a time (interval coloring on
// [start,finish]), which keeps concurrent requests from rendering as
// overlapping slices on a single track.

const (
	lanesPerTrack = int(NumComps)
	// worstLaneBase offsets worst-K lanes past any plausible sampled-lane
	// count (lanes are bounded by the max in-flight sampled requests).
	worstLaneBase = 1 << 9
	// tid 0 is reserved so thread ids stay nonzero in every viewer.
	tidBase = 1
)

func laneTid(lane int, c Comp, worst bool) int {
	if worst {
		lane += worstLaneBase
	}
	return tidBase + lane*lanesPerTrack + int(c)
}

// usec renders a nanosecond count as exact microseconds with three decimal
// places — the trace-event ts/dur unit — without going through floats.
func usec(ns int64) string {
	neg := ""
	if ns < 0 {
		neg = "-"
		ns = -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}

// laneAssign greedily assigns each record an exclusive lane over its
// [start,finish] interval. recs must be sorted by (start, seq); the result
// is index-aligned with recs.
func laneAssign(recs []*Rec) []int {
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := recs[order[a]], recs[order[b]]
		if ra.TS[PtStart] != rb.TS[PtStart] {
			return ra.TS[PtStart] < rb.TS[PtStart]
		}
		return ra.Seq < rb.Seq
	})
	lanes := make([]int, len(recs))
	var laneEnd []int64
	for _, i := range order {
		rec := recs[i]
		placed := -1
		for l, end := range laneEnd {
			if end <= rec.TS[PtStart] {
				placed = l
				break
			}
		}
		if placed < 0 {
			laneEnd = append(laneEnd, 0)
			placed = len(laneEnd) - 1
		}
		laneEnd[placed] = rec.TS[PtFinish]
		lanes[i] = placed
	}
	return lanes
}

type traceWriter struct {
	w     *bufio.Writer
	first bool
	err   error
}

func (t *traceWriter) event(body string) {
	if t.err != nil {
		return
	}
	sep := ",\n"
	if t.first {
		sep = "\n"
		t.first = false
	}
	if _, err := t.w.WriteString(sep + body); err != nil {
		t.err = err
	}
}

func (t *traceWriter) meta(pid, tid int, name, value string) {
	tidField := ""
	if tid >= 0 {
		tidField = fmt.Sprintf(",\"tid\":%d", tid)
	}
	t.event(fmt.Sprintf(`{"ph":"M","pid":%d%s,"name":%s,"args":{"name":%s}}`,
		pid, tidField, strconv.Quote(name), strconv.Quote(value)))
}

// WriteTrace writes the rigs' retained timelines as Chrome/Perfetto
// trace-event JSON. Rigs are emitted in the order given (obs.Set dumps in
// sorted-name order); the output is byte-deterministic.
func WriteTrace(w io.Writer, rigs []RigDump) error {
	bw := bufio.NewWriter(w)
	tw := &traceWriter{w: bw, first: true}
	if _, err := bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	for pid, rig := range rigs {
		tw.meta(pid, -1, "process_name", rig.Name)
		tw.event(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"bmstore_rig","args":{"requests":%d,"sampled":%d,"worst":%d}}`,
			pid, rig.Requests, len(rig.Samples), len(rig.Worst)))
		writeWave(tw, pid, rig.Samples, false)
		writeWave(tw, pid, rig.Worst, true)
	}
	if tw.err != nil {
		return tw.err
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func writeWave(tw *traceWriter, pid int, recs []*Rec, worst bool) {
	if len(recs) == 0 {
		return
	}
	lanes := laneAssign(recs)
	maxLane := 0
	for _, l := range lanes {
		if l > maxLane {
			maxLane = l
		}
	}
	for lane := 0; lane <= maxLane; lane++ {
		for c := Comp(0); c < NumComps; c++ {
			name := c.String()
			if worst {
				name += " (worst)"
			}
			if lane > 0 {
				name += fmt.Sprintf(" #%d", lane)
			}
			tw.meta(pid, laneTid(lane, c, worst), "thread_name", name)
		}
	}
	var stages []StageSpan
	for i, rec := range recs {
		lane := lanes[i]
		tw.event(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":%s,"args":{"seq":%d,"qd":%d,"wait_host_q_ns":%d,"wait_qos_ns":%d,"wait_backend_q_ns":%d,"wait_die_ns":%d}}`,
			pid, laneTid(lane, CompHost, worst), usec(rec.TS[PtStart]), usec(rec.E2E()),
			strconv.Quote(fmt.Sprintf("%s seq=%d", rec.OpString(), rec.Seq)),
			rec.Seq, rec.QD,
			rec.Waits[WaitHostQ], rec.Waits[WaitQoS], rec.Waits[WaitBackend], rec.Waits[WaitDie]))
		stages = rec.Stages(stages)
		for _, st := range stages {
			tw.event(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":%s,"args":{"seq":%d}}`,
				pid, laneTid(lane, st.Comp, worst), usec(st.From), usec(st.To-st.From),
				strconv.Quote(st.Name), rec.Seq))
		}
	}
}

// stageByName finds the StageTable row a stage slice was written from, so
// trace reconstruction can put its two ends back on their points. The
// interior stages would suffice: outer request slices carry start/finish, and
// "device"/"backend" endpoints are implied by their neighbors — but mapping
// them all keeps ReadTrace simple and exact.
func stageByName(name string) *StageDef {
	for i := range StageTable {
		if StageTable[i].Name == name {
			return &StageTable[i]
		}
	}
	return nil
}

type traceEvent struct {
	Ph   string          `json:"ph"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	Ts   json.Number     `json:"ts"`
	Dur  json.Number     `json:"dur"`
	Name string          `json:"name"`
	Args json.RawMessage `json:"args"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

type sliceArgs struct {
	Seq          *uint64 `json:"seq"`
	QD           int64   `json:"qd"`
	WaitHostQ    int64   `json:"wait_host_q_ns"`
	WaitQoS      int64   `json:"wait_qos_ns"`
	WaitBackendQ int64   `json:"wait_backend_q_ns"`
	WaitDie      int64   `json:"wait_die_ns"`
}

type rigArgs struct {
	Name     string `json:"name"`
	Requests uint64 `json:"requests"`
}

// parseUsec parses the writer's %d.%03d microsecond strings (and plain
// integers) back to nanoseconds.
func parseUsec(s string) (int64, error) {
	whole, frac := s, ""
	if i := strings.IndexByte(s, '.'); i >= 0 {
		whole, frac = s[:i], s[i+1:]
	}
	neg := strings.HasPrefix(whole, "-")
	us, err := strconv.ParseInt(whole, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("timeline: bad timestamp %q: %w", s, err)
	}
	ns := us * 1000
	if frac != "" {
		for len(frac) < 3 {
			frac += "0"
		}
		f, err := strconv.ParseInt(frac[:3], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("timeline: bad timestamp %q: %w", s, err)
		}
		if neg {
			f = -f
		}
		ns += f
	}
	return ns, nil
}

// ReadTrace parses a trace previously written by WriteTrace back into per-rig
// dumps, reconstructing each record's points, waits, and queue depth. It is
// the offline half of `bmsctl timeline`.
func ReadTrace(r io.Reader) ([]RigDump, error) {
	var tf traceFile
	if err := json.NewDecoder(r).Decode(&tf); err != nil {
		return nil, fmt.Errorf("timeline: parse trace: %w", err)
	}
	type wave map[uint64]*Rec
	rigNames := map[int]string{}
	rigReqs := map[int]uint64{}
	waves := map[int][2]wave{} // pid -> {sampled, worst}
	pids := []int{}
	touch := func(pid int) [2]wave {
		wv, ok := waves[pid]
		if !ok {
			wv = [2]wave{{}, {}}
			waves[pid] = wv
			pids = append(pids, pid)
		}
		return wv
	}
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
			var args rigArgs
			_ = json.Unmarshal(ev.Args, &args)
			switch ev.Name {
			case "process_name":
				rigNames[ev.Pid] = args.Name
				touch(ev.Pid)
			case "bmstore_rig":
				rigReqs[ev.Pid] = args.Requests
				touch(ev.Pid)
			}
		case "X":
			var args sliceArgs
			if err := json.Unmarshal(ev.Args, &args); err != nil || args.Seq == nil {
				continue
			}
			seq := *args.Seq
			wv := touch(ev.Pid)
			worstIdx := 0
			if ev.Tid >= tidBase+worstLaneBase*lanesPerTrack {
				worstIdx = 1
			}
			rec := wv[worstIdx][seq]
			if rec == nil {
				rec = &Rec{Seq: seq}
				wv[worstIdx][seq] = rec
			}
			ts, err := parseUsec(ev.Ts.String())
			if err != nil {
				return nil, err
			}
			dur, err := parseUsec(ev.Dur.String())
			if err != nil {
				return nil, err
			}
			if st := stageByName(ev.Name); st != nil {
				rec.Mark(st.From, ts)
				rec.Mark(st.To, ts+dur)
				continue
			}
			// Outer request slice: "<op> seq=N" with the full args set.
			rec.Write = strings.HasPrefix(ev.Name, "write")
			rec.QD = args.QD
			rec.Waits[WaitHostQ] = args.WaitHostQ
			rec.Waits[WaitQoS] = args.WaitQoS
			rec.Waits[WaitBackend] = args.WaitBackendQ
			rec.Waits[WaitDie] = args.WaitDie
			rec.Mark(PtStart, ts)
			rec.Mark(PtFinish, ts+dur)
		}
	}
	sort.Ints(pids)
	var out []RigDump
	for _, pid := range pids {
		d := RigDump{Name: rigNames[pid], Requests: rigReqs[pid]}
		for _, rec := range waves[pid][0] {
			d.Samples = append(d.Samples, rec)
		}
		sort.Slice(d.Samples, func(i, j int) bool { return d.Samples[i].Seq < d.Samples[j].Seq })
		for _, rec := range waves[pid][1] {
			d.Worst = append(d.Worst, rec)
		}
		sort.Slice(d.Worst, func(i, j int) bool {
			if d.Worst[i].E2E() != d.Worst[j].E2E() {
				return d.Worst[i].E2E() > d.Worst[j].E2E()
			}
			return d.Worst[i].Seq < d.Worst[j].Seq
		})
		out = append(out, d)
	}
	return out, nil
}
