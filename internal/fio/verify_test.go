package fio_test

import (
	"strings"
	"testing"

	"bmstore/internal/chaos"
	"bmstore/internal/fault"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
)

// verifyRig is a native host+SSD pair with an optional fault schedule,
// enough to drive RunVerify end to end.
type verifyRig struct {
	env *sim.Env
	drv *host.Driver
}

func newVerifyRig(t *testing.T, capture bool, rules ...fault.Rule) *verifyRig {
	t.Helper()
	env := sim.NewEnv(11)
	if len(rules) > 0 {
		env.SetFaults(fault.New(rules...))
	}
	h := host.New(env, 768<<30, host.CentOS("3.10.0"))
	cfg := ssd.P4510("SN001")
	cfg.CaptureData = capture
	dev := ssd.New(env, cfg)
	link := pcie.NewLink(env, 4, 300*sim.Nanosecond)
	port := h.Connect(link, dev, nil)
	dev.Attach(port)

	r := &verifyRig{env: env}
	var err error
	done := env.Go("attach", func(p *sim.Proc) {
		dcfg := host.DefaultDriverConfig()
		dcfg.CreateNSBlocks = cfg.CapacityBytes / ssd.BlockSize
		r.drv, err = host.AttachDriver(p, h, port, 0, dcfg)
	})
	env.Run()
	if !done.Done().Processed() || err != nil {
		t.Fatalf("driver attach: %v", err)
	}
	return r
}

func (r *verifyRig) runVerify(t *testing.T, name string, o *chaos.Oracle) (*fio.VerifyResult, error) {
	t.Helper()
	var res *fio.VerifyResult
	var err error
	finished := false
	r.env.Go("verify", func(p *sim.Proc) {
		res, err = fio.RunVerify(p, []host.BlockDevice{r.drv.BlockDev(0)}, name, o)
		finished = true
	})
	r.env.Run()
	if !finished {
		t.Fatal("verify workload did not complete")
	}
	return res, err
}

func TestRunVerifyCleanRig(t *testing.T) {
	r := newVerifyRig(t, true)
	o := chaos.NewOracle(42, 4096)
	res, err := r.runVerify(t, "clean", o)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if res.Writes == 0 || res.Reads == 0 {
		t.Fatalf("no coverage: %+v", res)
	}
	if res.WriteErrs != 0 || res.ReadErrs != 0 {
		t.Fatalf("errors on a clean rig: %+v", res)
	}
	if len(o.Violations()) != 0 || o.Overflow() != 0 {
		t.Fatalf("clean rig produced violations: %v", o.Violations())
	}
	c := r.drv.Counters()
	if c.Submitted == 0 || c.Submitted != c.Completed || c.Timeouts != 0 {
		t.Fatalf("counters off on a clean rig: %+v", c)
	}
}

func TestRunVerifyFailsFastWithoutCaptureData(t *testing.T) {
	r := newVerifyRig(t, false)
	o := chaos.NewOracle(42, 4096)
	_, err := r.runVerify(t, "nocap", o)
	if err == nil || !strings.Contains(err.Error(), "CaptureData") {
		t.Fatalf("want fail-fast naming CaptureData, got %v", err)
	}
	if len(o.Violations()) != 0 {
		t.Fatalf("fail-fast must not reach the oracle: %v", o.Violations())
	}
}

func TestRunVerifyCatchesPlantedCorruption(t *testing.T) {
	// A media-corrupt rule armed at 200 µs, inside the prefill (churn starts
	// near 0.7 ms), with no driver recovery in the way (no timeouts or
	// retries fire on silent corruption anyway): the read-back oracle must
	// catch the flipped byte.
	r := newVerifyRig(t, true, fault.Rule{
		Point: fault.MediaCorrupt, Target: "SN001", At: 200_000, Nth: 3, Count: 1,
	})
	o := chaos.NewOracle(7, 4096)
	res, err := r.runVerify(t, "planted", o)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if got := r.env.Faults().InjectedBy(fault.MediaCorrupt); got != 1 {
		t.Fatalf("media-corrupt fired %d times, want 1", got)
	}
	found := false
	for _, v := range o.Violations() {
		if v.Class == chaos.ClassCorrupt {
			found = true
		} else {
			t.Fatalf("unexpected violation class: %v", v)
		}
	}
	if !found {
		t.Fatalf("planted corruption not caught (violations: %v, result %+v)",
			o.Violations(), res)
	}
}
