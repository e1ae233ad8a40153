package spdkvhost_test

import (
	"bytes"
	"errors"
	"testing"

	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/spdkvhost"
	"bmstore/internal/ssd"
)

// vhostRig: host + SSD + vhost target with n cores + one virtio device.
type vhostRig struct {
	env *sim.Env
	h   *host.Host
	tgt *spdkvhost.Target
	dev *spdkvhost.Device
}

func newVhostRig(t *testing.T, cores int, capture bool) *vhostRig {
	t.Helper()
	env := sim.NewEnv(5)
	h := host.New(env, 768<<30, spdkvhost.PolledKernel())
	cfg := ssd.P4510("SN001")
	cfg.CaptureData = capture
	dev := ssd.New(env, cfg)
	link := pcie.NewLink(env, 4, 300*sim.Nanosecond)
	port := h.Connect(link, dev, nil)
	dev.Attach(port)

	r := &vhostRig{env: env, h: h}
	var err error
	var drv *host.Driver
	env.Go("attach", func(p *sim.Proc) {
		dcfg := host.DefaultDriverConfig()
		dcfg.CreateNSBlocks = cfg.CapacityBytes / ssd.BlockSize
		drv, err = host.AttachDriver(p, h, port, 0, dcfg)
	})
	env.Run()
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	r.tgt = spdkvhost.NewTarget(env, cores)
	r.dev = r.tgt.NewDevice(drv.BlockDev(0), host.CentOS("3.10.0"))
	return r
}

func (r *vhostRig) runFio(t *testing.T, spec fio.Spec) *fio.Result {
	t.Helper()
	var res *fio.Result
	r.env.Go("fio", func(p *sim.Proc) {
		res = fio.Run(p, []host.BlockDevice{r.dev}, spec)
	})
	r.env.Run()
	if res == nil {
		t.Fatal("fio did not finish")
	}
	return res
}

func TestVhostDataIntegrity(t *testing.T) {
	r := newVhostRig(t, 1, true)
	r.env.Go("test", func(p *sim.Proc) {
		data := make([]byte, 4*4096)
		for i := range data {
			data[i] = byte(i * 17)
		}
		if err := r.dev.WriteAt(p, 42, 4, data); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := r.dev.ReadAt(p, 42, 4, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("vhost path corrupted data")
		}
		if err := r.dev.Flush(p); err != nil {
			t.Fatal(err)
		}
	})
	r.env.Run()
}

// Table VII SPDK column: QD1 read ~82.7us.
func TestVhostQD1ReadLatency(t *testing.T) {
	r := newVhostRig(t, 1, false)
	res := r.runFio(t, fio.Spec{Name: "rand-r-1", Pattern: fio.RandRead,
		BlockSize: 4096, IODepth: 1, NumJobs: 4,
		Ramp: sim.Millisecond, Runtime: 20 * sim.Millisecond})
	lat := res.AvgLatencyUS()
	if lat < 79 || lat > 87 {
		t.Fatalf("vhost rand-r-1 latency %.1fus, paper 82.7us", lat)
	}
}

// Fig. 9 / Table VII: one vhost core caps 128K sequential reads at about
// 2.0 GB/s (65.2ms average latency at QD 1024).
func TestVhostSeqReadCoreBound(t *testing.T) {
	r := newVhostRig(t, 1, false)
	res := r.runFio(t, fio.Spec{Name: "seq-r-256", Pattern: fio.SeqRead,
		BlockSize: 128 << 10, IODepth: 256, NumJobs: 4,
		Ramp: 140 * sim.Millisecond, Runtime: 600 * sim.Millisecond})
	bw := res.BandwidthMBs()
	if bw < 1900 || bw > 2250 {
		t.Fatalf("vhost seq-r-256 bandwidth %.0f MB/s, paper ~2060", bw)
	}
	lat := res.AvgLatencyUS()
	if lat < 58000 || lat > 72000 {
		t.Fatalf("vhost seq-r-256 latency %.0fus, paper 65197us", lat)
	}
}

// Table VII: vhost write path caps near 1.2 GB/s.
func TestVhostSeqWriteCoreBound(t *testing.T) {
	r := newVhostRig(t, 1, false)
	res := r.runFio(t, fio.Spec{Name: "seq-w-256", Pattern: fio.SeqWrite,
		BlockSize: 128 << 10, IODepth: 256, NumJobs: 4,
		Ramp: 220 * sim.Millisecond, Runtime: 600 * sim.Millisecond})
	bw := res.BandwidthMBs()
	if bw < 1100 || bw > 1300 {
		t.Fatalf("vhost seq-w-256 bandwidth %.0f MB/s, paper ~1170", bw)
	}
}

// Fig. 9: rand-r-128 through vhost lands near 270K IOPS.
func TestVhostRandRead128(t *testing.T) {
	r := newVhostRig(t, 1, false)
	res := r.runFio(t, fio.Spec{Name: "rand-r-128", Pattern: fio.RandRead,
		BlockSize: 4096, IODepth: 128, NumJobs: 4,
		Ramp: 5 * sim.Millisecond, Runtime: 30 * sim.Millisecond})
	iops := res.IOPS()
	if iops < 240_000 || iops > 300_000 {
		t.Fatalf("vhost rand-r-128 IOPS %.0f, paper ~270K", iops)
	}
}

// More cores serve more bandwidth, but cross-core contention keeps eight
// cores on four SSDs near 80% of native (Fig. 1's shape).
func TestVhostMultiCoreScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaling sweep")
	}
	bw := func(cores int) float64 {
		env := sim.NewEnv(9)
		h := host.New(env, 768<<30, spdkvhost.PolledKernel())
		tgt := spdkvhost.NewTarget(env, cores)
		var devs []host.BlockDevice
		for i := 0; i < 4; i++ {
			cfg := ssd.P4510("SN")
			cfg.CaptureData = false
			sd := ssd.New(env, cfg)
			link := pcie.NewLink(env, 4, 300*sim.Nanosecond)
			var drv *host.Driver
			var err error
			port := h.Connect(link, sd, nil)
			sd.Attach(port)
			env.Go("attach", func(p *sim.Proc) {
				dcfg := host.DefaultDriverConfig()
				dcfg.CreateNSBlocks = cfg.CapacityBytes / ssd.BlockSize
				drv, err = host.AttachDriver(p, h, port, pcie.FuncID(0), dcfg)
			})
			env.Run()
			if err != nil {
				t.Fatal(err)
			}
			// Device i polls cores {c : c % 4 == i} (or shares when
			// cores < 4).
			var ids []int
			for c := i % cores; c < cores; c += 4 {
				ids = append(ids, c)
			}
			if len(ids) == 0 {
				ids = []int{i % cores}
			}
			devs = append(devs, tgt.NewDevice(drv.BlockDev(0), host.CentOS("3.10.0"), ids...))
		}
		var res *fio.Result
		env.Go("fio", func(p *sim.Proc) {
			res = fio.Run(p, devs, fio.Spec{Name: "fig1", Pattern: fio.SeqRead,
				BlockSize: 128 << 10, IODepth: 256, NumJobs: 4,
				Ramp: 150 * sim.Millisecond, Runtime: 400 * sim.Millisecond})
		})
		env.Run()
		return res.BandwidthMBs()
	}
	b1, b4, b8 := bw(1), bw(4), bw(8)
	if !(b1 < b4 && b4 < b8) {
		t.Fatalf("bandwidth not increasing with cores: %.0f %.0f %.0f", b1, b4, b8)
	}
	native := 4 * 3310.0
	if frac := b8 / native; frac < 0.70 || frac > 0.90 {
		t.Fatalf("8 cores reach %.0f%% of native, paper ~80%%", frac*100)
	}
	if frac := b1 / native; frac > 0.25 {
		t.Fatalf("1 core reaches %.0f%% of native, should be starved", frac*100)
	}
}

// deadDisk is a backend that fails every command, inside Submit.
type deadDisk struct{ host.Parking }

func (*deadDisk) BlockSize() int         { return 4096 }
func (*deadDisk) CapacityBlocks() uint64 { return 1 }
func (*deadDisk) PerIOCPU() sim.Time     { return 0 }
func (*deadDisk) Submit(_ uint8, _ uint64, _ uint32, _ []byte, done func(host.IOOutcome)) {
	done(host.IOOutcome{Status: nvme.StatusInternal, Attempts: 1})
}

// TestBackendErrorsNameTheBackend: what the backend fails, the vhost disk
// fails with the backend's own status error, worded as on every other device
// — a read and a write past the end of the namespace, and a flush the backend
// fails.
func TestBackendErrorsNameTheBackend(t *testing.T) {
	r := newVhostRig(t, 1, false)
	dead := r.tgt.NewDevice(&deadDisk{}, host.CentOS("3.10.0"))
	beyond := r.dev.CapacityBlocks() // the first LBA past the namespace
	var errs [3]error
	r.env.Go("io", func(p *sim.Proc) {
		errs[0] = r.dev.ReadAt(p, beyond, 1, nil)
		errs[1] = r.dev.WriteAt(p, beyond, 1, nil)
		errs[2] = dead.Flush(p)
	})
	r.env.Run()
	for i, want := range []nvme.Status{nvme.StatusLBAOutOfRange, nvme.StatusLBAOutOfRange, nvme.StatusInternal} {
		if !errors.Is(errs[i], host.StatusError(want)) {
			t.Errorf("I/O %d: got %v, want %v", i, errs[i], host.StatusError(want))
		}
	}
}
