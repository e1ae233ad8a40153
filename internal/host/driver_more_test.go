package host_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
	"bmstore/internal/trace"
)

func TestDriverRejectsBadConfig(t *testing.T) {
	env := sim.NewEnv(3)
	h := host.New(env, 1<<30, host.CentOS("3.10.0"))
	dev := ssd.New(env, ssd.P4510("X"))
	port := h.Connect(pcie.NewLink(env, 4, 300), dev, nil)
	dev.Attach(port)
	var err error
	env.Go("attach", func(p *sim.Proc) {
		_, err = host.AttachDriver(p, h, port, 0, host.DriverConfig{Queues: 0, QueueDepth: 8})
	})
	env.Run()
	if err == nil || !strings.Contains(err.Error(), "bad driver config") {
		t.Fatalf("err = %v", err)
	}
}

func TestDriverRequiresNamespace(t *testing.T) {
	env := sim.NewEnv(3)
	h := host.New(env, 768<<30, host.CentOS("3.10.0"))
	dev := ssd.New(env, ssd.P4510("X"))
	port := h.Connect(pcie.NewLink(env, 4, 300), dev, nil)
	dev.Attach(port)
	var err error
	env.Go("attach", func(p *sim.Proc) {
		cfg := host.DefaultDriverConfig() // CreateNSBlocks zero
		_, err = host.AttachDriver(p, h, port, 0, cfg)
	})
	env.Run()
	if err == nil || !strings.Contains(err.Error(), "no namespace") {
		t.Fatalf("err = %v", err)
	}
}

func TestOversizedIOPanics(t *testing.T) {
	r := newNativeRig(t, host.CentOS("3.10.0"), nil, false)
	var recovered any
	r.env.Go("big", func(p *sim.Proc) {
		defer func() { recovered = recover() }()
		r.drv.IO(p, nvme.IORead, 0, 2048, nil, 0) // 8 MB > 1 MB max
	})
	r.env.Run()
	if recovered == nil {
		t.Fatal("oversized I/O did not panic")
	}
}

func TestFlushThroughBlockDevice(t *testing.T) {
	r := newNativeRig(t, host.CentOS("3.10.0"), nil, true)
	r.env.Go("flush", func(p *sim.Proc) {
		bd := r.drv.BlockDev(0)
		if err := bd.WriteAt(p, 0, 1, make([]byte, 4096)); err != nil {
			t.Error(err)
		}
		t0 := p.Now()
		if err := bd.Flush(p); err != nil {
			t.Error(err)
		}
		if p.Now() == t0 {
			t.Error("flush consumed no time")
		}
	})
	r.env.Run()
}

func TestSplitBytesInsideVM(t *testing.T) {
	k := host.CentOS("3.10.0")
	k.SplitBytes = 32 << 10
	vm := host.KVMGuest()
	r := newNativeRig(t, k, &vm, true)
	r.env.Go("test", func(p *sim.Proc) {
		bd := r.drv.BlockDev(0)
		data := make([]byte, 128<<10)
		for i := range data {
			data[i] = byte(i >> 4)
		}
		if err := bd.WriteAt(p, 100, 32, data); err != nil {
			t.Error(err)
		}
		got := make([]byte, len(data))
		if err := bd.ReadAt(p, 100, 32, got); err != nil {
			t.Error(err)
		}
		for i := range got {
			if got[i] != data[i] {
				t.Fatal("split VM I/O corrupted data")
			}
		}
		// 128K / 32K = 4 split writes + 4 split reads at the device.
		if r.dev.Ops.Writes != 4 || r.dev.Ops.Reads != 4 {
			t.Fatalf("device ops r=%d w=%d, want 4/4", r.dev.Ops.Reads, r.dev.Ops.Writes)
		}
	})
	r.env.Run()
}

func TestPerIOCPUReflectsVM(t *testing.T) {
	vm := host.KVMGuest()
	r := newNativeRig(t, host.CentOS("3.10.0"), &vm, false)
	bare := newNativeRig(t, host.CentOS("3.10.0"), nil, false)
	if r.drv.BlockDev(0).PerIOCPU() <= bare.drv.BlockDev(0).PerIOCPU() {
		t.Fatal("VM per-IO CPU should exceed bare metal")
	}
}

// TestCompletionWakeUpQueuesOnlyWhenTheWaiterWouldRunOn: the interrupt
// handler resumes an I/O waiter inside itself (sim.Event.Fire), which is
// sound because the waiter's first act is to sleep the kernel's completion
// cost. Under a profile whose completion cost is zero that sleep returns at
// once and the process would carry on — return to its caller, submit again —
// in the middle of the handler; there the wake-up must go through the event
// queue as it always did. The waiter is now the I/O's CQE callback, and the
// process parked in ReadAt resumes once the completion cost has passed. The
// kernel's own trace records tell the two apart: at the instant the CQE is
// reaped, one queue entry fired (the MSI delivery) or two (the delivery,
// then the queued callback).
func TestCompletionWakeUpQueuesOnlyWhenTheWaiterWouldRunOn(t *testing.T) {
	for _, tc := range []struct {
		name  string
		comp  sim.Time
		fires int
	}{
		{"completion cost 2.1us: resumed in place", 2100 * sim.Nanosecond, 1},
		{"completion cost zero: queued", 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := host.CentOS("3.10.0")
			k.CompleteLatency = tc.comp
			var dump bytes.Buffer
			tr := trace.New(trace.Options{Dump: &dump})
			env := sim.NewEnv(3)
			env.SetTracer(tr) // before attach: the driver records its CQEs
			r := newNativeRigOn(t, env, k, nil, false)
			var returned sim.Time
			r.env.Go("reader", func(p *sim.Proc) {
				if err := r.drv.BlockDev(0).ReadAt(p, 64, 1, nil); err != nil {
					t.Error(err)
				}
				returned = p.Now()
				p.Sleep(10) // keep the process's own Done event off that instant
			})
			r.env.Run()
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			// The reader parks once per I/O: it resumes to start, once its
			// I/O is done and after its last sleep. The CQE instant is the
			// driver's own record of reaping it, not a resume.
			var at string
			resumes, cqes := 0, 0
			lines := strings.Split(dump.String(), "\n")
			for _, l := range lines {
				f := strings.Fields(l)
				switch {
				case len(f) > 2 && f[1] == "sim" && f[2] == "resume" && strings.HasSuffix(l, " reader"):
					resumes++
				case len(f) > 3 && f[1] == "host" && f[2] == "cqe":
					// a = fn<<32 | vector<<16 | CID; vector 0 is the admin
					// queue's, from the attach.
					if a, _ := strconv.ParseUint(strings.TrimPrefix(f[3], "a=0x"), 16, 64); a>>16&0xffff != 0 {
						cqes++
						at = f[0]
					}
				}
			}
			if resumes != 3 {
				t.Fatalf("reader resumed %d times, want 3", resumes)
			}
			if cqes != 1 {
				t.Fatalf("%d I/O queue CQEs reaped, want the reader's one", cqes)
			}
			cqeAt, _ := strconv.ParseInt(at, 10, 64)
			fires := 0
			for _, l := range lines {
				if f := strings.Fields(l); len(f) > 2 && f[0] == at && f[1] == "sim" && f[2] == "fire" {
					fires++
				}
			}
			if fires != tc.fires {
				t.Errorf("%d queue entries fired at t=%s ns, where the CQE is reaped; want %d", fires, at, tc.fires)
			}
			if returned != cqeAt+tc.comp {
				t.Errorf("ReadAt returned at %d, want %d ns after the CQE at %d", returned, tc.comp, cqeAt)
			}
		})
	}
}
