package host_test

import (
	"bytes"
	"testing"

	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
)

// nativeRig wires a host directly to one SSD (the paper's "native disk"
// baseline) and attaches the kernel NVMe driver.
type nativeRig struct {
	env *sim.Env
	h   *host.Host
	dev *ssd.SSD
	drv *host.Driver
}

func newNativeRig(t *testing.T, kernel host.KernelProfile, vm *host.VMProfile, capture bool) *nativeRig {
	t.Helper()
	return newNativeRigOn(t, sim.NewEnv(3), kernel, vm, capture)
}

// newNativeRigOn is newNativeRig on a given environment, say one whose tracer
// is set before the driver attaches and takes it.
func newNativeRigOn(t *testing.T, env *sim.Env, kernel host.KernelProfile, vm *host.VMProfile, capture bool) *nativeRig {
	t.Helper()
	h := host.New(env, 768<<30, kernel)
	cfg := ssd.P4510("SN001")
	cfg.CaptureData = capture
	dev := ssd.New(env, cfg)
	link := pcie.NewLink(env, 4, 300*sim.Nanosecond)
	port := h.Connect(link, dev, nil)
	dev.Attach(port)

	r := &nativeRig{env: env, h: h, dev: dev}
	var err error
	done := env.Go("attach", func(p *sim.Proc) {
		dcfg := host.DefaultDriverConfig()
		dcfg.CreateNSBlocks = cfg.CapacityBytes / ssd.BlockSize
		dcfg.VM = vm
		r.drv, err = host.AttachDriver(p, h, port, 0, dcfg)
	})
	env.Run()
	if !done.Done().Processed() || err != nil {
		t.Fatalf("driver attach: %v", err)
	}
	return r
}

func (r *nativeRig) runFio(t *testing.T, spec fio.Spec) *fio.Result {
	t.Helper()
	var res *fio.Result
	devs := make([]host.BlockDevice, spec.NumJobs)
	for i := range devs {
		devs[i] = r.drv.BlockDev(i)
	}
	r.env.Go("fio", func(p *sim.Proc) { res = fio.Run(p, devs, spec) })
	r.env.Run()
	if res == nil {
		t.Fatal("fio did not complete")
	}
	return res
}

func TestDriverAttachReadsIdentity(t *testing.T) {
	r := newNativeRig(t, host.CentOS("3.10.0"), nil, true)
	if r.drv.Identity().Serial != "SN001" {
		t.Fatalf("identity %+v", r.drv.Identity())
	}
	if r.drv.NamespaceBlocks() == 0 {
		t.Fatal("no namespace size")
	}
}

func TestDriverDataIntegrity(t *testing.T) {
	r := newNativeRig(t, host.CentOS("3.10.0"), nil, true)
	r.env.Go("test", func(p *sim.Proc) {
		bd := r.drv.BlockDev(0)
		data := make([]byte, 8*4096)
		for i := range data {
			data[i] = byte(i % 251)
		}
		if err := bd.WriteAt(p, 1000, 8, data); err != nil {
			t.Fatal(err)
		}
		if err := bd.Flush(p); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := bd.ReadAt(p, 1000, 8, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("data mismatch through driver")
		}
	})
	r.env.Run()
}

func TestKernelSplitBytes(t *testing.T) {
	k := host.CentOS("3.10.0")
	k.SplitBytes = 64 << 10
	r := newNativeRig(t, k, nil, true)
	r.env.Go("test", func(p *sim.Proc) {
		bd := r.drv.BlockDev(0)
		data := make([]byte, 128<<10) // splits into 2 x 64K
		for i := range data {
			data[i] = byte(i * 3)
		}
		if err := bd.WriteAt(p, 0, 32, data); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := bd.ReadAt(p, 0, 32, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("split I/O corrupted data")
		}
		// Device saw the writes as two commands.
		if r.dev.Ops.Writes != 2 {
			t.Fatalf("device write ops %d, want 2 (split)", r.dev.Ops.Writes)
		}
	})
	r.env.Run()
}

// Calibration tests: Table V native-disk column.

func TestNativeQD1ReadLatency(t *testing.T) {
	r := newNativeRig(t, host.CentOS("3.10.0"), nil, false)
	res := r.runFio(t, fio.Spec{Name: "rand-r-1", Pattern: fio.RandRead,
		BlockSize: 4096, IODepth: 1, NumJobs: 4,
		Ramp: sim.Millisecond, Runtime: 20 * sim.Millisecond})
	lat := res.AvgLatencyUS()
	if lat < 74 || lat > 80 {
		t.Fatalf("native rand-r-1 latency %.1fus, paper 77.2us", lat)
	}
}

func TestNativeQD1WriteLatency(t *testing.T) {
	r := newNativeRig(t, host.CentOS("3.10.0"), nil, false)
	res := r.runFio(t, fio.Spec{Name: "rand-w-1", Pattern: fio.RandWrite,
		BlockSize: 4096, IODepth: 1, NumJobs: 4,
		Ramp: sim.Millisecond, Runtime: 20 * sim.Millisecond})
	lat := res.AvgLatencyUS()
	if lat < 10 || lat > 13.5 {
		t.Fatalf("native rand-w-1 latency %.1fus, paper 11.6us", lat)
	}
}

func TestNativeRandRead128(t *testing.T) {
	r := newNativeRig(t, host.CentOS("3.10.0"), nil, false)
	res := r.runFio(t, fio.Spec{Name: "rand-r-128", Pattern: fio.RandRead,
		BlockSize: 4096, IODepth: 128, NumJobs: 4,
		Ramp: 5 * sim.Millisecond, Runtime: 30 * sim.Millisecond})
	iops := res.IOPS()
	lat := res.AvgLatencyUS()
	if iops < 600_000 || iops > 700_000 {
		t.Fatalf("native rand-r-128 IOPS %.0f, paper ~651K", iops)
	}
	if lat < 700 || lat > 880 {
		t.Fatalf("native rand-r-128 latency %.0fus, paper 786.7us", lat)
	}
}

func TestNativeRandWrite16(t *testing.T) {
	r := newNativeRig(t, host.CentOS("3.10.0"), nil, false)
	res := r.runFio(t, fio.Spec{Name: "rand-w-16", Pattern: fio.RandWrite,
		BlockSize: 4096, IODepth: 16, NumJobs: 4,
		Ramp: 5 * sim.Millisecond, Runtime: 30 * sim.Millisecond})
	lat := res.AvgLatencyUS()
	if lat < 160 || lat > 200 {
		t.Fatalf("native rand-w-16 latency %.0fus, paper 179.8us", lat)
	}
}

func TestNativeSeqRead(t *testing.T) {
	r := newNativeRig(t, host.CentOS("3.10.0"), nil, false)
	res := r.runFio(t, fio.Spec{Name: "seq-r-256", Pattern: fio.SeqRead,
		BlockSize: 128 << 10, IODepth: 256, NumJobs: 4,
		Ramp: 90 * sim.Millisecond, Runtime: 150 * sim.Millisecond})
	bw := res.BandwidthMBs()
	if bw < 3150 || bw > 3450 {
		t.Fatalf("native seq-r-256 bandwidth %.0f MB/s, paper ~3300", bw)
	}
	lat := res.AvgLatencyUS()
	if lat < 37000 || lat > 44000 {
		t.Fatalf("native seq-r-256 latency %.0fus, paper 40579us", lat)
	}
}

func TestNativeSeqWrite(t *testing.T) {
	r := newNativeRig(t, host.CentOS("3.10.0"), nil, false)
	res := r.runFio(t, fio.Spec{Name: "seq-w-256", Pattern: fio.SeqWrite,
		BlockSize: 128 << 10, IODepth: 256, NumJobs: 4,
		Ramp: 200 * sim.Millisecond, Runtime: 200 * sim.Millisecond})
	bw := res.BandwidthMBs()
	if bw < 1380 || bw > 1520 {
		t.Fatalf("native seq-w-256 bandwidth %.0f MB/s, paper ~1450", bw)
	}
	lat := res.AvgLatencyUS()
	if lat < 85000 || lat > 99000 {
		t.Fatalf("native seq-w-256 latency %.0fus, paper 92502us", lat)
	}
}

// VM calibration: Table VII VFIO column.

func TestVFIOGuestQD1Read(t *testing.T) {
	vm := host.KVMGuest()
	r := newNativeRig(t, host.CentOS("3.10.0"), &vm, false)
	res := r.runFio(t, fio.Spec{Name: "rand-r-1", Pattern: fio.RandRead,
		BlockSize: 4096, IODepth: 1, NumJobs: 4,
		Ramp: sim.Millisecond, Runtime: 20 * sim.Millisecond})
	lat := res.AvgLatencyUS()
	if lat < 76.5 || lat > 83 {
		t.Fatalf("VFIO rand-r-1 latency %.1fus, paper 79.7us", lat)
	}
}

func TestVFIOGuestRandRead128(t *testing.T) {
	vm := host.KVMGuest()
	r := newNativeRig(t, host.CentOS("3.10.0"), &vm, false)
	res := r.runFio(t, fio.Spec{Name: "rand-r-128", Pattern: fio.RandRead,
		BlockSize: 4096, IODepth: 128, NumJobs: 4,
		Ramp: 5 * sim.Millisecond, Runtime: 30 * sim.Millisecond})
	iops := res.IOPS()
	if iops < 280_000 || iops > 340_000 {
		t.Fatalf("VFIO rand-r-128 IOPS %.0f, paper ~311K", iops)
	}
	lat := res.AvgLatencyUS()
	if lat < 1500 || lat > 1850 {
		t.Fatalf("VFIO rand-r-128 latency %.0fus, paper 1647us", lat)
	}
}

func TestFedoraKernelLowersIOPS(t *testing.T) {
	spec := fio.Spec{Name: "rand-r-16x8", Pattern: fio.RandRead,
		BlockSize: 4096, IODepth: 16, NumJobs: 8,
		Ramp: 5 * sim.Millisecond, Runtime: 30 * sim.Millisecond}
	centos := newNativeRig(t, host.CentOS("3.10.0"), nil, false).runFio(t, spec)
	fedora := newNativeRig(t, host.Fedora("5.8.15"), nil, false).runFio(t, spec)
	if centos.IOPS() <= fedora.IOPS() {
		t.Fatalf("host.CentOS %.0f should out-IOPS host.Fedora %.0f (Table VI)", centos.IOPS(), fedora.IOPS())
	}
	ratio := fedora.IOPS() / centos.IOPS()
	if ratio < 0.88 || ratio > 0.99 {
		t.Fatalf("host.Fedora/host.CentOS ratio %.2f, paper ~0.94", ratio)
	}
}
