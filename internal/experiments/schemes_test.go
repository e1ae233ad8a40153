package experiments

import (
	"fmt"
	"strings"
	"testing"

	"bmstore"
	"bmstore/internal/host"
	"bmstore/internal/sim"
)

// TestAttachNamesTheFailedStepAndDisk: a bring-up step that fails comes back
// from Attach as an error naming the step and the disk, after the disks
// before it were handed out and before any disk after it is touched.
func TestAttachNamesTheFailedStepAndDisk(t *testing.T) {
	ok := Disk{Name: "ok", Bytes: 16 << 20, SSDs: []int{0}}
	never := Disk{Name: "never", Bytes: 16 << 20, SSDs: []int{0}}
	for _, tc := range []struct {
		name string
		s    *Scheme
		bad  Disk
		step string
	}{
		{"card disk on a missing SSD", bmStore, Disk{Name: "far", Bytes: 16 << 20, SSDs: []int{3}}, "create namespace"},
		{"direct disk on two SSDs", native, Disk{Name: "wide", Bytes: 16 << 20, SSDs: []int{0, 1}}, "attach"},
		{"QoS on a direct disk", native, Disk{Name: "capped", Bytes: 16 << 20, SSDs: []int{0}, QoSIOPS: 1000}, "set QoS"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := bmstore.DefaultConfig()
			cfg.NumSSDs = 1
			tb, err := tc.s.Testbed(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var handed []string
			tb.Run(func(p *sim.Proc) {
				err = tc.s.Attach(p, tb, []Disk{ok, tc.bad, never}, host.DefaultDriverConfig(), 1, func(i int, _ *host.Driver, _ []host.BlockDevice) {
					handed = append(handed, fmt.Sprint(i))
				})
			})
			want := fmt.Sprintf("%s disk %q: %s: ", tc.s.name, tc.bad.Name, tc.step)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("Attach returned %v, want an error containing %q", err, want)
			}
			if got := strings.Join(handed, ","); got != "0" {
				t.Errorf("disks handed out: %q, want only the one before the failure", got)
			}
		})
	}
}
