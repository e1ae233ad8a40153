package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ParseSpec parses the command-line fault language used by `bmsctl fio -faults`:
// semicolon-separated rules, each a kind followed by comma-separated
// key=value fields.
//
//	kind[,t=20ms][,dur=5ms][,nth=50][,count=3][,target=PHLJ0000][,status=0x82][,die=7]
//
// Kinds: media-err, media-slow, admin-err, ssd-stall, ssd-drop,
// pcie-replay, mctp-drop, backend-stall, media-corrupt, torn-write,
// misdirected-read, engine-crash. Times (t, dur) use Go duration syntax and
// are virtual time; status accepts decimal or 0x-hex; t, dur and die must
// not be negative. A rule token may appear at most once: exact duplicates
// double their firings silently, so they are rejected.
//
// Example — drop SSD PHLJ0000 20 ms in, and make every 100th media read on
// any drive take an extra 2 ms:
//
//	ssd-drop,t=20ms,target=PHLJ0000;media-slow,nth=100,count=-1,dur=2ms
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if seen[part] {
			return nil, fmt.Errorf("fault: duplicate rule %q: the same token appears twice in the spec — a repeated rule doubles its firings silently, so drop one copy (or change a field, e.g. count=2, if two firings are meant)", part)
		}
		seen[part] = true
		r, err := parseRule(part)
		if err != nil {
			return nil, fmt.Errorf("fault: rule %q: %w", part, err)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("fault: empty spec (want semicolon-separated rules, each \"kind[,key=value...]\")")
	}
	return rules, nil
}

// specKinds maps spec-language kinds to their point and defaults.
var specKinds = map[string]Rule{
	"media-err":     {Point: SSDMediaRead, Status: 0x281}, // unrecovered read error
	"media-slow":    {Point: SSDMediaRead, Duration: int64(time.Millisecond)},
	"admin-err":     {Point: SSDAdmin, Status: 0x06}, // internal error
	"ssd-stall":     {Point: SSDStall, Duration: int64(5 * time.Millisecond)},
	"ssd-drop":      {Point: SSDDrop},
	"pcie-replay":   {Point: PCIeXfer},
	"mctp-drop":     {Point: MCTPRx},
	"backend-stall": {Point: BackendSubmit, Duration: int64(5 * time.Millisecond)},
	// Data-hazard kinds: the command succeeds but the payload is damaged.
	// They require the rig to capture real data (ssd.Config.CaptureData).
	"media-corrupt":    {Point: MediaCorrupt},
	"torn-write":       {Point: WriteTorn},
	"misdirected-read": {Point: ReadMisdirect},
	// Hard engine crash: t= crashes at that virtual instant, nth= on the
	// Nth engine dispatch. Pair with a crash manager (internal/crash /
	// bmstore.WithCrashRecovery) for checkpoint-restore recovery.
	"engine-crash": {Point: EngineCrash},
}

// validKinds returns the spec kinds sorted, for error messages.
func validKinds() string {
	kinds := make([]string, 0, len(specKinds))
	for k := range specKinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return strings.Join(kinds, ", ")
}

// nonNegative rejects a negative t, dur or die: the rule would parse and
// then never act — a window that covers no time, a latency that adds none,
// a die that never matches.
func nonNegative(x int64) error {
	if x < 0 {
		return errors.New("must not be negative: the rule would never take effect")
	}
	return nil
}

func parseRule(s string) (Rule, error) {
	fields := strings.Split(s, ",")
	kind := strings.TrimSpace(fields[0])
	r, ok := specKinds[kind]
	if !ok {
		return Rule{}, fmt.Errorf("unknown kind %q (valid kinds: %s)", kind, validKinds())
	}
	for _, f := range fields[1:] {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		k, v, found := strings.Cut(f, "=")
		if !found {
			return Rule{}, fmt.Errorf("field %q is not key=value", f)
		}
		var err error
		switch k {
		case "t":
			var d time.Duration
			if d, err = time.ParseDuration(v); err == nil {
				r.At, err = int64(d), nonNegative(int64(d))
			}
		case "dur":
			var d time.Duration
			if d, err = time.ParseDuration(v); err == nil {
				r.Duration, err = int64(d), nonNegative(int64(d))
			}
		case "nth":
			r.Nth, err = strconv.ParseUint(v, 10, 64)
		case "count":
			r.Count, err = strconv.Atoi(v)
		case "target":
			r.Target = v
		case "status":
			var st uint64
			if st, err = strconv.ParseUint(v, 0, 16); err == nil {
				r.Status = uint16(st)
			}
		case "die":
			if r.Die, err = strconv.Atoi(v); err == nil {
				err = nonNegative(int64(r.Die))
			}
		default:
			return Rule{}, fmt.Errorf("unknown field %q (valid fields: t, dur, nth, count, target, status, die)", k)
		}
		if err != nil {
			return Rule{}, fmt.Errorf("field %q: bad value %q: %w", k, v, err)
		}
	}
	return r, nil
}
