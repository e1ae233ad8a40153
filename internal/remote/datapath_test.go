package remote_test

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"bmstore"
	"bmstore/internal/host"
	"bmstore/internal/remote"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
	"bmstore/internal/trace"
)

// A remote target runs the device's shared data path: one "ssd/media"
// process per media operation carries the network round trip, and no process
// per command.
func TestRemoteTargetOneProcessPerMediaOp(t *testing.T) {
	var dump bytes.Buffer
	tr := trace.New(trace.Options{Dump: &dump})
	c := bmstore.DefaultConfig()
	c.NumSSDs = 1
	c.SSDWithEnv = func(e *sim.Env, i int) ssd.Config {
		return remote.BackendConfig(e, "RMT00001", ssd.P4510("RMT00001"), remote.RDMA())
	}
	tb, err := bmstore.NewBMStoreTestbed(c, bmstore.WithTrace(tr))
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
		must(tb.Console.CreateNamespace(p, "rvol", 128<<30, []int{0}))
		must(tb.Console.Bind(p, "rvol", 0))
		drv, err := tb.AttachTenant(p, 0, host.DefaultDriverConfig())
		must(err)
		must(tr.Flush())
		mark = dump.Len()
		must(drv.BlockDev(0).WriteAt(p, 77, 2, nil))
		must(drv.BlockDev(0).ReadAt(p, 77, 2, nil))
	})
	must(tr.Flush())
	io := dump.String()[mark:]
	if n := len(regexp.MustCompile(`(?m) spawn .* ssd/media$`).FindAllString(io, -1)); n != 2 {
		t.Errorf("%d ssd/media processes for one write and one read, want 2", n)
	}
	if n := strings.Count(io, " spawn "); n != 2 {
		t.Errorf("%d processes spawned during the two commands, want only the 2 media operations:\n%s", n, io)
	}
	if !regexp.MustCompile(`ssd +complete .* RMT00001`).MatchString(io) {
		t.Error("the remote target left no `ssd complete` record")
	}
}
