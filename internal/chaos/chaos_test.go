package chaos

import (
	"strings"
	"testing"

	"bmstore/internal/fault"
	"bmstore/internal/host"
)

const blockSize = 4096

func mkBlock(seed int64, lba, gen uint64) []byte {
	b := make([]byte, blockSize)
	FillBlock(b, seed, lba, gen)
	return b
}

func TestTagRoundTrip(t *testing.T) {
	b := mkBlock(77, 1234, 9)
	seed, lba, gen, ok := DecodeTag(b)
	if !ok || seed != 77 || lba != 1234 || gen != 9 {
		t.Fatalf("decoded (%d,%d,%d,%v)", seed, lba, gen, ok)
	}
	if allZero(b) {
		t.Fatal("tagged block reads as zero")
	}
	// Distinct triples must differ beyond the header too.
	c := mkBlock(77, 1234, 10)
	same := 0
	for i := TagSize; i < blockSize; i++ {
		if b[i] == c[i] {
			same++
		}
	}
	if same > blockSize/8 {
		t.Fatalf("keystreams for adjacent gens agree on %d/%d body bytes", same, blockSize-TagSize)
	}
	if _, _, _, ok := DecodeTag(make([]byte, blockSize)); ok {
		t.Fatal("zero block decoded as tagged")
	}
}

func TestOracleCleanWriteRead(t *testing.T) {
	o := NewOracle(5, blockSize)
	gen, ok := o.BeginWrite(100, 2)
	if !ok {
		t.Fatal("fresh LBA refused")
	}
	buf := make([]byte, 2*blockSize)
	o.FillPayload(buf, 100, gen)
	o.EndWrite(100, 2, gen, WriteAcked)
	o.CheckRead("churn", 100, 2, buf)
	if len(o.Violations()) != 0 {
		t.Fatalf("clean read-back flagged: %v", o.Violations())
	}
	// Unwritten LBA reading zeros is clean too.
	o.CheckRead("sweep", 500, 1, make([]byte, blockSize))
	if len(o.Violations()) != 0 {
		t.Fatalf("zero read of unwritten LBA flagged: %v", o.Violations())
	}
}

// plant runs one write-then-damaged-read cycle and returns the violations.
func plant(t *testing.T, damage func(o *Oracle, lba uint64, acked []byte) []byte) []Violation {
	t.Helper()
	o := NewOracle(9, blockSize)
	lba := uint64(42)
	gen, _ := o.BeginWrite(lba, 1)
	buf := make([]byte, blockSize)
	o.FillPayload(buf, lba, gen)
	o.EndWrite(lba, 1, gen, WriteAcked)
	o.CheckRead("sweep", lba, 1, damage(o, lba, buf))
	return o.Violations()
}

func TestOracleCatchesCorruptReadBack(t *testing.T) {
	vs := plant(t, func(o *Oracle, lba uint64, acked []byte) []byte {
		blk := append([]byte{}, acked...)
		blk[blockSize/2] ^= 0xA5 // the media-corrupt fault's own damage shape
		return blk
	})
	if len(vs) != 1 || vs[0].Class != ClassCorrupt {
		t.Fatalf("violations %v, want one corrupt", vs)
	}
}

func TestOracleCatchesMisdirectedRead(t *testing.T) {
	vs := plant(t, func(o *Oracle, lba uint64, acked []byte) []byte {
		return mkBlock(o.Seed(), lba+1, 7) // the neighbour's valid payload
	})
	if len(vs) != 1 || vs[0].Class != ClassMisdirected {
		t.Fatalf("violations %v, want one misdirected", vs)
	}
	if !strings.Contains(vs[0].Detail, "lba=43") {
		t.Fatalf("detail %q should name the actual LBA", vs[0].Detail)
	}
}

func TestOracleCatchesLostWrite(t *testing.T) {
	vs := plant(t, func(o *Oracle, lba uint64, acked []byte) []byte {
		return make([]byte, blockSize) // acked data vanished
	})
	if len(vs) != 1 || vs[0].Class != ClassLost {
		t.Fatalf("violations %v, want one lost", vs)
	}
}

func TestOracleCatchesTornWrite(t *testing.T) {
	o := NewOracle(9, blockSize)
	lba := uint64(42)
	g1, _ := o.BeginWrite(lba, 1)
	old := make([]byte, blockSize)
	o.FillPayload(old, lba, g1)
	o.EndWrite(lba, 1, g1, WriteAcked)
	g2, _ := o.BeginWrite(lba, 1)
	next := make([]byte, blockSize)
	o.FillPayload(next, lba, g2)
	o.EndWrite(lba, 1, g2, WriteAcked)
	// The torn-write fault's exact shape: first half new, tail old.
	torn := append(append([]byte{}, next[:blockSize/2]...), old[blockSize/2:]...)
	o.CheckRead("sweep", lba, 1, torn)
	vs := o.Violations()
	if len(vs) != 1 || vs[0].Class != ClassTorn {
		t.Fatalf("violations %v, want one torn", vs)
	}
}

func TestOracleCatchesStaleGeneration(t *testing.T) {
	o := NewOracle(9, blockSize)
	lba := uint64(42)
	g1, _ := o.BeginWrite(lba, 1)
	old := make([]byte, blockSize)
	o.FillPayload(old, lba, g1)
	o.EndWrite(lba, 1, g1, WriteAcked)
	g2, _ := o.BeginWrite(lba, 1)
	o.EndWrite(lba, 1, g2, WriteAcked)
	o.CheckRead("sweep", lba, 1, old) // the superseded generation
	vs := o.Violations()
	if len(vs) != 1 || vs[0].Class != ClassStale {
		t.Fatalf("violations %v, want one stale", vs)
	}
}

func TestOracleInDoubtAndWounded(t *testing.T) {
	o := NewOracle(9, blockSize)
	lba := uint64(10)
	g1, _ := o.BeginWrite(lba, 1)
	first := make([]byte, blockSize)
	o.FillPayload(first, lba, g1)
	o.EndWrite(lba, 1, g1, WriteAcked)
	// Indeterminate overwrite: either generation may read back; further
	// writes are refused.
	g2, ok := o.BeginWrite(lba, 1)
	if !ok {
		t.Fatal("write refused before wound")
	}
	second := make([]byte, blockSize)
	o.FillPayload(second, lba, g2)
	o.EndWrite(lba, 1, g2, WriteInDoubt)
	if o.InDoubt() != 1 {
		t.Fatalf("inDoubt = %d", o.InDoubt())
	}
	if _, ok := o.BeginWrite(lba, 1); ok {
		t.Fatal("wounded LBA accepted a write")
	}
	o.CheckRead("sweep", lba, 1, first)
	o.CheckRead("sweep", lba, 1, second)
	if len(o.Violations()) != 0 {
		t.Fatalf("both generations of an in-doubt write are allowed: %v", o.Violations())
	}
	// But a third, never-written generation is not.
	o.CheckRead("sweep", lba, 1, mkBlock(9, lba, 999))
	if vs := o.Violations(); len(vs) != 1 || vs[0].Class != ClassLost {
		t.Fatalf("violations %v, want one lost (unacknowledged generation)", vs)
	}
}

func TestOracleViolationCap(t *testing.T) {
	o := NewOracle(9, blockSize)
	for i := uint64(0); i < maxViolations+10; i++ {
		gen, _ := o.BeginWrite(i, 1)
		o.EndWrite(i, 1, gen, WriteAcked)
		o.CheckRead("sweep", i, 1, make([]byte, blockSize))
	}
	if len(o.Violations()) != maxViolations || o.Overflow() != 10 {
		t.Fatalf("cap: %d stored, %d overflow", len(o.Violations()), o.Overflow())
	}
}

// --- invariant checker: every violation plantable, checker proven to fail ---

func greenReport() *Report {
	return &Report{
		Schedule: Schedule{Seed: 1, Rules: []fault.Rule{{Point: fault.SSDMediaRead, Status: 0x06}}},
		Injected: 1,
		Fired:    map[fault.Point]uint64{fault.SSDMediaRead: 1},
		Counters: host.IOCounters{Submitted: 100, Completed: 100, Retries: 1},
		Writes:   50, Reads: 50,
	}
}

func hasFinding(fs []Finding, name string) bool {
	for _, f := range fs {
		if f.Name == name {
			return true
		}
	}
	return false
}

func TestCheckGreenReport(t *testing.T) {
	if fs := Check(greenReport()); len(fs) != 0 {
		t.Fatalf("green report flagged: %v", fs)
	}
}

func TestCheckCrashRegimeClean(t *testing.T) {
	// Under the crash regime a timed-out CID may be reaped by a late
	// straggler OR force-reclaimed at re-attach; any split that sums to
	// the timeout count balances the books.
	r := greenReport()
	r.Crash = true
	r.Counters.Timeouts = 3
	r.Counters.Completed -= 3
	r.Counters.Aborts = 3
	r.Counters.Stragglers = 1
	r.Counters.Reclaimed = 2
	r.InDoubt = 1
	if fs := Check(r); len(fs) != 0 {
		t.Fatalf("clean crash-regime report flagged: %v", fs)
	}
}

func TestCheckPlantedViolations(t *testing.T) {
	cases := []struct {
		name  string
		mutch func(r *Report)
		want  string
	}{
		{"lost ack", func(r *Report) { r.Counters.Completed-- }, "completion-lost"},
		{"duplicate completion", func(r *Report) { r.Counters.Spurious = 1 }, "completion-duplicated"},
		{"zombie left", func(r *Report) { r.Counters.ZombiesLeft = 2 }, "zombie-cids"},
		{"abort mismatch", func(r *Report) { r.Counters.Aborts = 1 }, "abort-accounting"},
		{"straggler mismatch", func(r *Report) {
			r.Counters.Timeouts = 1
			r.Counters.Completed-- // keep submitted = completed + timeouts
			r.Counters.Aborts = 1
		}, "straggler-accounting"},
		{"in-doubt without timeouts", func(r *Report) { r.InDoubt = 1 }, "in-doubt-accounting"},
		{"io errors", func(r *Report) { r.WriteErrs = 1 }, "io-errors"},
		{"no coverage", func(r *Report) { r.Writes, r.Reads = 0, 0 }, "no-coverage"},
		{"corrupt read-back on benign run", func(r *Report) {
			r.Violations = []Violation{{Phase: "sweep", LBA: 7, Class: ClassCorrupt}}
		}, "integrity"},
		{"misdirected read on benign run", func(r *Report) {
			r.Violations = []Violation{{Phase: "sweep", LBA: 7, Class: ClassMisdirected}}
		}, "integrity"},
		{"hazard fired on benign schedule", func(r *Report) {
			r.Fired[fault.MediaCorrupt] = 1
		}, "hazard-leak"},
		{"deadlock", func(r *Report) {
			r.Stall = &Stall{At: 123, Pending: 0, Blocked: []string{"1:main"}}
		}, "liveness"},
		{"timeouts from nowhere", func(r *Report) {
			r.Injected = 0
			r.Fired = map[fault.Point]uint64{}
			r.Counters.Retries = 0
			r.Counters.Timeouts = 1
			r.Counters.Completed--
			r.Counters.Aborts = 1
			r.Counters.Stragglers = 1
		}, "unexplained-timeouts"},
		{"reclaims without a crash", func(r *Report) {
			r.Counters.Reclaimed = 1
		}, "unexplained-reclaims"},
		{"crash regime straggler leak", func(r *Report) {
			r.Crash = true
			r.Counters.Timeouts = 2
			r.Counters.Completed -= 2 // keep submitted = completed + timeouts
			r.Counters.Aborts = 2
			r.Counters.Stragglers = 1
			r.Counters.Reclaimed = 0 // one timed-out CID unaccounted for
		}, "straggler-accounting"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := greenReport()
			tc.mutch(r)
			fs := Check(r)
			if !hasFinding(fs, tc.want) {
				t.Fatalf("planted %s not reported; findings: %v", tc.want, fs)
			}
		})
	}
}

func TestCheckHazardRegime(t *testing.T) {
	r := greenReport()
	r.Schedule = Schedule{Seed: 2, Hazard: true, Rules: []fault.Rule{
		{Point: fault.MediaCorrupt, Target: "CH0", Count: 1},
	}}
	r.Fired = map[fault.Point]uint64{fault.MediaCorrupt: 1}
	r.Counters.Retries = 0

	// Fired corrupt with no corrupt violation: the detector missed.
	if fs := Check(r); !hasFinding(fs, "detector-miss") {
		t.Fatalf("undetected corrupt not reported: %v", fs)
	}
	// Matching violation satisfies the regime.
	r.Violations = []Violation{{Phase: "churn", LBA: 3, Class: ClassCorrupt}}
	if fs := Check(r); len(fs) != 0 {
		t.Fatalf("explained hazard run flagged: %v", fs)
	}
	// A violation class the schedule cannot cause is flagged.
	r.Violations = append(r.Violations, Violation{Phase: "sweep", LBA: 9, Class: ClassMisdirected})
	if fs := Check(r); !hasFinding(fs, "unexplained-violation") {
		t.Fatalf("foreign violation class not reported: %v", fs)
	}

	// Misdirect detection guarantee: fired but uncaught is a miss; a Lost
	// violation (neighbour unwritten) satisfies it.
	r = greenReport()
	r.Schedule = Schedule{Seed: 3, Hazard: true, Rules: []fault.Rule{
		{Point: fault.ReadMisdirect, Target: "CH0", Count: 1},
	}}
	r.Fired = map[fault.Point]uint64{fault.ReadMisdirect: 1}
	r.Counters.Retries = 0
	if fs := Check(r); !hasFinding(fs, "detector-miss") {
		t.Fatalf("undetected misdirect not reported: %v", fs)
	}
	r.Violations = []Violation{{Phase: "sweep", LBA: 3, Class: ClassLost}}
	if fs := Check(r); len(fs) != 0 {
		t.Fatalf("lost-class misdirect evidence rejected: %v", fs)
	}
}

// --- schedule generator ---

func targets() Targets {
	return Targets{SSDs: []string{"CH0", "CH1"}, Links: []string{"host", "ssd0", "ssd1"}}
}

func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := Generate(seed, targets())
		b := Generate(seed, targets())
		if a.Hazard != b.Hazard || len(a.Rules) != len(b.Rules) {
			t.Fatalf("seed %d: schedules diverge", seed)
		}
		for i := range a.Rules {
			if a.Rules[i] != b.Rules[i] {
				t.Fatalf("seed %d rule %d: %+v vs %+v", seed, i, a.Rules[i], b.Rules[i])
			}
		}
	}
}

func TestGenerateRegimes(t *testing.T) {
	sawHazard, sawBenign := false, false
	for seed := int64(0); seed < 100; seed++ {
		s := Generate(seed, targets())
		if len(s.Rules) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		if s.Hazard {
			sawHazard = true
			if len(s.HazardPoints()) == 0 {
				t.Fatalf("seed %d: hazard schedule with no hazard rules", seed)
			}
			for _, r := range s.Rules {
				if r.Point == fault.SSDStall || r.Point == fault.BackendSubmit || r.Point == fault.SSDDrop {
					t.Fatalf("seed %d: hazard schedule contains stall/drop %v", seed, r.Point)
				}
				if r.Status != 0 {
					t.Fatalf("seed %d: hazard schedule injects status errors: %+v", seed, r)
				}
			}
		} else {
			sawBenign = true
			if len(s.HazardPoints()) != 0 {
				t.Fatalf("seed %d: benign schedule has hazard rules", seed)
			}
			for _, r := range s.Rules {
				if r.Point == fault.SSDDrop {
					t.Fatalf("seed %d: benign schedule surprise-drops an SSD", seed)
				}
				if r.Status != 0 && r.Status != 0x06 {
					t.Fatalf("seed %d: non-retryable status %#x", seed, r.Status)
				}
			}
		}
		for _, r := range s.Rules {
			if r.At < minAt || r.At >= maxAt {
				t.Fatalf("seed %d: rule arms outside the workload window: %+v", seed, r)
			}
		}
	}
	if !sawHazard || !sawBenign {
		t.Fatalf("100 seeds produced hazard=%v benign=%v; generator is stuck", sawHazard, sawBenign)
	}
}
