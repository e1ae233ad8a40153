package fault

import (
	"strings"
	"testing"
)

func TestHitNthAndCount(t *testing.T) {
	in := New(Rule{Point: SSDAdmin, Target: "S1", Nth: 3, Count: 2, Status: 0x06})
	var fired []int
	for i := 1; i <= 6; i++ {
		if r := in.Hit(SSDAdmin, "S1", 0); r != nil {
			fired = append(fired, i)
			if r.Status != 0x06 {
				t.Fatalf("rule status = %#x, want 0x06", r.Status)
			}
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 4 {
		t.Fatalf("fired on ops %v, want [3 4]", fired)
	}
	if in.Injected() != 2 {
		t.Fatalf("injected = %d, want 2", in.Injected())
	}
}

func TestHitDefaultsToSingleShot(t *testing.T) {
	in := New(Rule{Point: SSDAdmin})
	if in.Hit(SSDAdmin, "any", 0) == nil {
		t.Fatal("first op should fire")
	}
	if in.Hit(SSDAdmin, "any", 0) != nil {
		t.Fatal("Count 0 means one firing")
	}
}

func TestHitUnlimitedCount(t *testing.T) {
	in := New(Rule{Point: MCTPRx, Count: -1})
	for i := 0; i < 5; i++ {
		if in.Hit(MCTPRx, "console", 0) == nil {
			t.Fatalf("op %d should fire with Count -1", i)
		}
	}
}

func TestHitArmsAtTime(t *testing.T) {
	in := New(Rule{Point: SSDAdmin, At: 100})
	if in.Hit(SSDAdmin, "S1", 99) != nil {
		t.Fatal("rule fired before At")
	}
	if in.Hit(SSDAdmin, "S1", 100) == nil {
		t.Fatal("rule should fire at At")
	}
}

func TestTargetFilter(t *testing.T) {
	in := New(Rule{Point: SSDAdmin, Target: "S1", Count: -1})
	if in.Hit(SSDAdmin, "S2", 0) != nil {
		t.Fatal("rule fired on wrong target")
	}
	if in.Hit(SSDAdmin, "S1", 0) == nil {
		t.Fatal("rule should fire on its target")
	}
}

func TestHitMediaDieFilter(t *testing.T) {
	in := New(Rule{Point: SSDMediaRead, Die: 3, Count: -1, Status: 0x281})
	if in.HitMedia("S1", 1, 0) != nil {
		t.Fatal("die 1 should not match Die filter 3 (= die 2)")
	}
	if in.HitMedia("S1", 2, 0) == nil {
		t.Fatal("die 2 should match 1-based Die filter 3")
	}
	// Die 0 matches everything.
	in2 := New(Rule{Point: SSDMediaRead, Count: -1})
	if in2.HitMedia("S1", 7, 0) == nil {
		t.Fatal("zero Die should match any die")
	}
}

func TestStallUntil(t *testing.T) {
	in := New(Rule{Point: SSDStall, Target: "S1", At: 100, Duration: 50})
	if end := in.StallUntil(SSDStall, "S1", 99); end != 0 {
		t.Fatalf("stall active before window: end=%d", end)
	}
	if end := in.StallUntil(SSDStall, "S1", 120); end != 150 {
		t.Fatalf("stall end = %d, want 150", end)
	}
	if end := in.StallUntil(SSDStall, "S1", 150); end != 0 {
		t.Fatalf("stall active at window end: end=%d", end)
	}
	if in.Injected() != 1 {
		t.Fatalf("stall window injected = %d, want 1", in.Injected())
	}
}

func TestDropped(t *testing.T) {
	in := New(Rule{Point: SSDDrop, Target: "S1", At: 100})
	if in.Dropped("S1", 50) {
		t.Fatal("dropped before At")
	}
	if in.Dropped("S2", 200) {
		t.Fatal("wrong target dropped")
	}
	if !in.Dropped("S1", 100) || !in.Dropped("S1", 300) {
		t.Fatal("drop should be permanent once armed")
	}
	if in.Injected() != 1 {
		t.Fatalf("drop injected = %d, want 1", in.Injected())
	}
}

func TestNilInjectorIsFree(t *testing.T) {
	var in *Injector
	if in.Hit(SSDAdmin, "x", 0) != nil || in.HitMedia("x", 0, 0) != nil {
		t.Fatal("nil injector fired")
	}
	if in.StallUntil(SSDStall, "x", 0) != 0 || in.Dropped("x", 0) {
		t.Fatal("nil injector stalled/dropped")
	}
	if in.Injected() != 0 || in.Rules() != nil {
		t.Fatal("nil injector has state")
	}
}

func TestDeterministicReplay(t *testing.T) {
	rules := []Rule{
		{Point: SSDMediaRead, Nth: 2, Count: 3, Status: 0x82},
		{Point: SSDStall, At: 10, Duration: 5},
		{Point: SSDDrop, Target: "S9", At: 40},
	}
	run := func() []uint64 {
		in := New(rules...)
		var log []uint64
		for now := int64(0); now < 50; now += 5 {
			if in.HitMedia("S1", int(now%4), now) != nil {
				log = append(log, uint64(now)<<8|1)
			}
			if in.StallUntil(SSDStall, "S1", now) > 0 {
				log = append(log, uint64(now)<<8|2)
			}
			if in.Dropped("S9", now) {
				log = append(log, uint64(now)<<8|3)
			}
		}
		return log
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("scenario injected nothing")
	}
	if len(a) != len(b) {
		t.Fatalf("replay diverged: %d vs %d injections", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %x vs %x", i, a[i], b[i])
		}
	}
}

func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec("ssd-drop,t=20ms,target=PHLJ0000; media-slow,nth=100,count=-1,dur=2ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules, want 2", len(rules))
	}
	if rules[0].Point != SSDDrop || rules[0].At != 20_000_000 || rules[0].Target != "PHLJ0000" {
		t.Fatalf("rule 0 = %+v", rules[0])
	}
	if rules[1].Point != SSDMediaRead || rules[1].Nth != 100 || rules[1].Count != -1 || rules[1].Duration != 2_000_000 {
		t.Fatalf("rule 1 = %+v", rules[1])
	}
}

func TestParseSpecDefaultsAndErrors(t *testing.T) {
	rules, err := ParseSpec("media-err")
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].Status != 0x281 {
		t.Fatalf("media-err default status = %#x, want 0x281", rules[0].Status)
	}
	rules, err = ParseSpec("admin-err,status=0x82")
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].Status != 0x82 {
		t.Fatalf("status override = %#x, want 0x82", rules[0].Status)
	}
	for _, bad := range []string{"", "warp-core-breach", "ssd-stall,t=", "ssd-drop,t", "media-err,volume=11"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q should not parse", bad)
		}
	}
}

func TestParseSpecFailuresNameOffendingToken(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want []string // substrings the error must contain
	}{
		{"empty", "", []string{"empty spec", "kind"}},
		{"only separators", " ; ;", []string{"empty spec"}},
		{"unknown kind", "warp-core-breach,t=1ms", []string{`"warp-core-breach"`, "valid kinds", "media-corrupt", "torn-write"}},
		{"unknown field", "media-err,volume=11", []string{`"volume"`, "valid fields", "target"}},
		{"bare field", "ssd-drop,t", []string{`"t"`, "key=value"}},
		{"bad duration t", "ssd-stall,t=20x", []string{`"t"`, `"20x"`}},
		{"bad duration dur", "media-slow,dur=fast", []string{`"dur"`, `"fast"`}},
		{"bad nth", "media-err,nth=-3", []string{`"nth"`, `"-3"`}},
		{"bad count", "media-err,count=many", []string{`"count"`, `"many"`}},
		{"bad status", "admin-err,status=0xZZ", []string{`"status"`, `"0xZZ"`}},
		{"status overflow", "admin-err,status=0x10000", []string{`"status"`, `"0x10000"`}},
		{"bad die", "media-err,die=north", []string{`"die"`, `"north"`}},
		{"error in second rule", "media-err;torn-write,t=oops", []string{`"torn-write,t=oops"`, `"oops"`}},
		// Negative values parse as numbers but leave the rule a silent no-op:
		// a window that covers no time, a latency that adds none, a die that
		// never matches.
		{"negative t", "ssd-stall,t=-5ms,dur=2ms", []string{`"t"`, `"-5ms"`, "negative"}},
		{"negative dur", "ssd-stall,t=5ms,dur=-2ms", []string{`"dur"`, `"-2ms"`, "negative"}},
		{"negative latency", "media-slow,nth=10,count=-1,dur=-1ms", []string{`"dur"`, `"-1ms"`, "negative"}},
		{"negative die", "media-err,die=-3", []string{`"die"`, `"-3"`, "negative"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(tc.spec)
			if err == nil {
				t.Fatalf("spec %q should not parse", tc.spec)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name token %q", err, want)
				}
			}
		})
	}
}

func TestParseSpecDataHazardKinds(t *testing.T) {
	rules, err := ParseSpec("media-corrupt,t=2ms,target=CH0;torn-write,nth=5;misdirected-read,count=-1")
	if err != nil {
		t.Fatal(err)
	}
	want := []Point{MediaCorrupt, WriteTorn, ReadMisdirect}
	for i, pt := range want {
		if rules[i].Point != pt {
			t.Fatalf("rule %d point = %v, want %v", i, rules[i].Point, pt)
		}
	}
	if rules[0].At != 2_000_000 || rules[0].Target != "CH0" {
		t.Fatalf("rule 0 = %+v", rules[0])
	}
	if !HasDataHazards(rules) {
		t.Fatal("HasDataHazards should report true")
	}
	benign, err := ParseSpec("media-err;ssd-stall")
	if err != nil {
		t.Fatal(err)
	}
	if HasDataHazards(benign) {
		t.Fatal("HasDataHazards should report false for benign rules")
	}
	for _, pt := range []Point{MediaCorrupt, WriteTorn, ReadMisdirect} {
		if !pt.DataHazard() {
			t.Fatalf("%v should be a data hazard", pt)
		}
	}
	for _, pt := range []Point{SSDMediaRead, SSDDrop, PCIeXfer} {
		if pt.DataHazard() {
			t.Fatalf("%v should not be a data hazard", pt)
		}
	}
}

func TestInjectedBy(t *testing.T) {
	in := New(
		Rule{Point: MediaCorrupt, Count: 2},
		Rule{Point: WriteTorn},
		Rule{Point: SSDStall, At: 0, Duration: 10},
		Rule{Point: SSDDrop, Target: "S1"},
	)
	in.Hit(MediaCorrupt, "S1", 0)
	in.Hit(MediaCorrupt, "S1", 0)
	in.Hit(MediaCorrupt, "S1", 0) // exhausted, no count
	in.Hit(WriteTorn, "S1", 0)
	in.StallUntil(SSDStall, "S1", 5)
	in.Dropped("S1", 0)
	checks := []struct {
		pt   Point
		want uint64
	}{
		{MediaCorrupt, 2}, {WriteTorn, 1}, {SSDStall, 1}, {SSDDrop, 1}, {ReadMisdirect, 0},
	}
	for _, c := range checks {
		if got := in.InjectedBy(c.pt); got != c.want {
			t.Fatalf("InjectedBy(%v) = %d, want %d", c.pt, got, c.want)
		}
	}
	if in.Injected() != 5 {
		t.Fatalf("Injected = %d, want 5", in.Injected())
	}
	var nilIn *Injector
	if nilIn.InjectedBy(MediaCorrupt) != 0 {
		t.Fatal("nil injector InjectedBy should be 0")
	}
}

func TestParseSpecEngineCrash(t *testing.T) {
	rules, err := ParseSpec("engine-crash,t=4ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || rules[0].Point != EngineCrash || rules[0].At != 4_000_000 {
		t.Fatalf("rules = %+v", rules)
	}
	rules, err = ParseSpec("engine-crash,nth=32")
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].Nth != 32 || rules[0].At != 0 {
		t.Fatalf("nth rule = %+v", rules[0])
	}
	if EngineCrash.String() != "engine-crash" {
		t.Fatalf("String = %q", EngineCrash.String())
	}
	if EngineCrash.DataHazard() {
		t.Fatal("engine-crash is not a data-hazard point")
	}
}

func TestParseSpecRejectsDuplicateRules(t *testing.T) {
	cases := []struct {
		name string
		spec string
		dup  string // "" when the spec must parse
	}{
		{"plain duplicate", "media-err;media-err", `"media-err"`},
		{"duplicate with fields", "ssd-stall,t=2ms,dur=1ms;ssd-stall,t=2ms,dur=1ms", `"ssd-stall,t=2ms,dur=1ms"`},
		{"duplicate after whitespace trim", "ssd-drop,t=1ms; ssd-drop,t=1ms ", `"ssd-drop,t=1ms"`},
		{"triple, first pair reported", "mctp-drop;mctp-drop;mctp-drop", `"mctp-drop"`},
		{"duplicate amid others", "media-err;engine-crash,t=3ms;media-slow,dur=2ms;engine-crash,t=3ms", `"engine-crash,t=3ms"`},
		{"same kind different fields ok", "media-err,nth=1;media-err,nth=2", ""},
		{"same kind different targets ok", "ssd-drop,target=CH0;ssd-drop,target=CH1", ""},
		{"single rule ok", "engine-crash,t=1ms", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(tc.spec)
			if tc.dup == "" {
				if err != nil {
					t.Fatalf("spec %q should parse: %v", tc.spec, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("spec %q should be rejected as a duplicate", tc.spec)
			}
			if !strings.Contains(err.Error(), "duplicate") || !strings.Contains(err.Error(), tc.dup) {
				t.Fatalf("error %q should say duplicate and name token %s", err, tc.dup)
			}
		})
	}
}

// FuzzParseSpec: whatever the input, ParseSpec either errors or returns at
// least one rule, each at a known point with a non-negative At, Duration
// and Die — never a panic, never a rule that parses and cannot act.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		"",
		"media-err",
		"ssd-drop,t=20ms,target=PHLJ0000;media-slow,nth=100,count=-1,dur=2ms",
		"ssd-stall,t=-5ms,dur=2ms",
		"media-err,die=-3,status=0x82",
		"engine-crash,nth=3;torn-write,count=2;mctp-drop,t=1h",
		"media-err;media-err",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if len(rules) == 0 {
			t.Fatalf("ParseSpec(%q) returned no rules and no error", spec)
		}
		for i, r := range rules {
			if r.Point >= numPoints {
				t.Fatalf("ParseSpec(%q): rule %d at unknown point %d", spec, i, r.Point)
			}
			if r.At < 0 || r.Duration < 0 || r.Die < 0 {
				t.Fatalf("ParseSpec(%q): rule %d = %+v has a negative At, Duration or Die", spec, i, r)
			}
		}
	})
}
