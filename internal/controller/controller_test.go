package controller

import (
	"encoding/json"
	"testing"

	"bmstore/internal/mctp"
)

// The deep controller behaviour (provisioning, hot-upgrade, hot-plug,
// monitor) is exercised end-to-end in the root bmstore package tests; this
// file covers the pure pieces.

func TestDeployedConstantsSane(t *testing.T) {
	if EID == 0 || EID == ConsoleEID {
		t.Fatalf("controller EID %#x collides", EID)
	}
	// The paper's ~100 ms BM-Store processing = save + restore.
	if total := ctxSaveLatency + ctxRestoreLatency; total < 50e6 || total > 200e6 {
		t.Fatalf("context save+restore %v ns, want ~90-100 ms", total)
	}
}

func TestWirePayloadRoundTrips(t *testing.T) {
	fn := 7
	cases := []any{
		CreateNSReq{Name: "vol0", SizeBytes: 1 << 38, SSDs: []int{0, 2}},
		BindReq{Name: "vol0", Fn: 5},
		QoSReq{Name: "vol0", IOPS: 50000, BytesPerSec: 2e8},
		HotUpgradeReq{SSD: 1, Version: "VDV10200", ImageKB: 512},
		InventoryResp{
			Backends:   []BackendInfo{{Index: 0, Serial: "S", Model: "M", Firmware: "F", GB: 2000, Ready: true}},
			Namespaces: []NamespaceInfo{{Name: "vol0", SizeGB: 256, BoundFn: &fn}},
		},
		SubsystemHealth{Healthy: true, CompositeTempC: 41},
		DataStructureResp{Subsystem: &SubsystemInfo{NQN: "nqn.x", Controllers: 128, Backends: 4}},
	}
	for _, c := range cases {
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("%T: %v", c, err)
		}
		// Payloads must fit comfortably in a handful of MCTP fragments.
		if len(b) > 8*mctp.MTU {
			t.Fatalf("%T payload %d bytes, too chatty", c, len(b))
		}
	}
}

func TestMonitorSampleIsJSONStable(t *testing.T) {
	s := MonitorSample{AtMS: 100, ReadIOPS: 1000, WriteMBps: 5}
	b, _ := json.Marshal(s)
	var got MonitorSample
	if err := json.Unmarshal(b, &got); err != nil || got != s {
		t.Fatalf("round trip %+v err=%v", got, err)
	}
}
