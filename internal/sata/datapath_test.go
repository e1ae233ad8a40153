package sata_test

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"bmstore"
	"bmstore/internal/fault"
	"bmstore/internal/host"
	"bmstore/internal/sata"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
	"bmstore/internal/trace"
)

// mixedRun drives the tiered rig of TestMixedFlashAndSATABackends with a
// dumping tracer and a media-error rule aimed at the HDD's serial. It returns
// the trace records of the tenant I/O phase (bring-up excluded), the run
// digest, the error of the HDD's first read and the injected-fault count.
func mixedRun(t *testing.T) (io, digest string, firstRead error, injected uint64) {
	t.Helper()
	rules, err := fault.ParseSpec("media-err,nth=1,target=HDD00001")
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	tr := trace.New(trace.Options{Dump: &dump})
	c := bmstore.DefaultConfig()
	c.NumSSDs = 2
	c.SSDWithEnv = func(e *sim.Env, i int) ssd.Config {
		if i == 0 {
			return ssd.P4510("FLASH000")
		}
		sc, _ := sata.BridgeConfig(e, "HDD00001", sata.Enterprise7200())
		return sc
	}
	tb, err := bmstore.NewBMStoreTestbed(c, bmstore.WithTrace(tr), bmstore.WithFaults(rules...))
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	var mark int
	tb.Run(func(p *sim.Proc) {
		must(tb.Console.CreateNamespace(p, "hot", 64<<30, []int{0}))
		must(tb.Console.CreateNamespace(p, "cold", 512<<30, []int{1}))
		must(tb.Console.Bind(p, "hot", 0))
		must(tb.Console.Bind(p, "cold", 1))
		hot, err := tb.AttachTenant(p, 0, host.DefaultDriverConfig())
		must(err)
		cold, err := tb.AttachTenant(p, 1, host.DefaultDriverConfig())
		must(err)
		must(tr.Flush())
		mark = dump.Len()
		firstRead = cold.BlockDev(0).ReadAt(p, 1<<20, 1, nil)
		must(cold.BlockDev(0).WriteAt(p, 1<<10, 8, nil))
		must(cold.BlockDev(0).ReadAt(p, 1<<26, 1, nil))
		must(hot.BlockDev(0).ReadAt(p, 0, 1, nil))
	})
	must(tr.Flush())
	return dump.String()[mark:], tr.Digest(), firstRead, tb.Env.Faults().Injected()
}

// The bridged HDD runs the same device chain as flash: only its media phase
// differs, carried by one "ssd/media" process per media operation.
func TestBridgedDiskOnSharedDataPath(t *testing.T) {
	io, digest, firstRead, injected := mixedRun(t)

	// Trace emits are shared: the HDD's commands leave issue and complete
	// records under its serial, as the flash device's do.
	for _, rec := range []string{`ssd +issue .* HDD00001`, `ssd +complete .* HDD00001`, `ssd +issue .* FLASH000`} {
		if !regexp.MustCompile(rec).MatchString(io) {
			t.Errorf("no %q record in the I/O phase of the trace", rec)
		}
	}
	// Fault points are shared: the media-error rule aimed at the HDD's
	// serial fires once and reaches the tenant as the injected status.
	if injected != 1 || !regexp.MustCompile(`fault +media .* HDD00001`).MatchString(io) {
		t.Errorf("media-err rule on the HDD: injected %d, want one fired `fault media` record", injected)
	}
	if firstRead == nil || !strings.Contains(firstRead.Error(), "0x281") {
		t.Errorf("the HDD's first read returned %v, want the injected status 0x281", firstRead)
	}
	// One process per media operation (the failed read never reached the
	// medium), none per command.
	if n := len(regexp.MustCompile(`(?m) spawn .* ssd/media$`).FindAllString(io, -1)); n != 2 {
		t.Errorf("%d ssd/media processes for the HDD's write and read, want 2", n)
	}
	if strings.Contains(io, "ssd/exec") {
		t.Error("an ssd/exec process ran during tenant I/O; only admin commands execute in processes")
	}
	// Nothing else pins the Media path's timing: same seed, same digest.
	if _, again, _, _ := mixedRun(t); again != digest {
		t.Errorf("same seed, different digests: %s then %s", digest, again)
	}
}

// A profile the mechanical model cannot run is rejected where testbeds build
// the medium (BridgeConfig, through Config.SSDWithEnv), not mid-run as a
// negative sleep.
func TestBadProfileRejectedAtConstruction(t *testing.T) {
	for field, zero := range map[string]func(*sata.HDDProfile){
		"TransferBps":   func(p *sata.HDDProfile) { p.TransferBps = 0 },
		"RPM":           func(p *sata.HDDProfile) { p.RPM = 0 },
		"CapacityBytes": func(p *sata.HDDProfile) { p.CapacityBytes = 0 },
	} {
		prof := sata.Enterprise7200()
		zero(&prof)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "HDDProfile."+field) {
					t.Errorf("zero %s: BridgeConfig panicked with %q, want a message naming the field", field, msg)
				}
			}()
			sata.BridgeConfig(sim.NewEnv(1), "HDD00001", prof)
		}()
	}
}
