package controller

import (
	"encoding/json"
	"fmt"

	"bmstore/internal/fault"
	"bmstore/internal/mctp"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
)

// Console is the cloud operator's remote management station. It reaches
// the BMS-Controller through the BMC and MCTP over PCIe, never through the
// tenant's host OS. Wire it with a send function that injects raw MCTP
// packets toward the engine (typically Port.VDMToDevice behind a BMC
// network delay) and feed responses into Receive.
type Console struct {
	env     *sim.Env
	ep      *mctp.Endpoint
	ctrlEID uint8
	pending nvme.CIDTable[sim.Event] // waiting requests by MI request id
	nextID  uint16
}

// ConsoleEID is the default endpoint ID of the console/BMC side.
const ConsoleEID = 0x08

// NewConsole creates a console speaking to the controller at ctrlEID.
func NewConsole(env *sim.Env, ctrlEID uint8, send func(raw []byte)) *Console {
	c := &Console{env: env, ctrlEID: ctrlEID}
	c.ep = mctp.NewEndpoint(ConsoleEID, send)
	if flt := env.Faults(); flt != nil {
		// fault.MCTPRx rules targeting "console" eat response packets on the
		// BMC/operator side, so MI requests time out and surface as errors.
		c.ep.SetRxFault(func() bool {
			return flt.Hit(fault.MCTPRx, "console", env.Now()) != nil
		})
	}
	c.ep.SetHandler(func(src uint8, msgType uint8, body []byte) {
		if msgType != mctp.MsgTypeNVMeMI {
			return
		}
		msg, err := mctp.DecodeMI(body)
		if err != nil || !msg.Response {
			return
		}
		if ev := c.pending.Delete(msg.RequestID); ev != nil {
			ev.Trigger(msg)
		}
	})
	return c
}

// Receive feeds one raw MCTP packet (arriving from the BMC path) in.
func (c *Console) Receive(raw []byte) { c.ep.Receive(raw) }

// Request sends one MI command and blocks until its response. req is JSON
// encoded; the response payload is decoded into resp when non-nil.
func (c *Console) Request(p *sim.Proc, opcode uint8, req any, resp any) error {
	var payload []byte
	if req != nil {
		var err error
		if payload, err = json.Marshal(req); err != nil {
			return err
		}
	}
	c.nextID++
	id := c.nextID
	msg := mctp.MIMessage{Opcode: opcode, RequestID: id, Payload: payload}
	ev := c.env.NewEvent()
	c.pending.Put(id, ev)
	c.ep.Send(c.ctrlEID, mctp.MsgTypeNVMeMI, msg.Encode())
	got, ok := p.WaitTimeout(ev, 120*sim.Second)
	if !ok {
		c.pending.Delete(id)
		return fmt.Errorf("console: MI op %#x timed out", opcode)
	}
	rm := got.(mctp.MIMessage)
	if rm.Status != mctp.MIStatusSuccess {
		return fmt.Errorf("console: MI op %#x failed: status %#x: %s", opcode, rm.Status, rm.Payload)
	}
	if resp != nil {
		return json.Unmarshal(rm.Payload, resp)
	}
	return nil
}

// CreateNamespace provisions a virtual disk.
func (c *Console) CreateNamespace(p *sim.Proc, name string, sizeBytes uint64, ssds []int) error {
	return c.Request(p, mctp.MIVendorCreateNS, CreateNSReq{Name: name, SizeBytes: sizeBytes, SSDs: ssds}, nil)
}

// Bind attaches a namespace to a front-end PF/VF.
func (c *Console) Bind(p *sim.Proc, name string, fn uint8) error {
	return c.Request(p, mctp.MIVendorBindNS, BindReq{Name: name, Fn: fn}, nil)
}

// SetQoS installs rate limits on a namespace.
func (c *Console) SetQoS(p *sim.Proc, name string, iops, bytesPerSec float64) error {
	return c.Request(p, mctp.MIVendorSetQoS, QoSReq{Name: name, IOPS: iops, BytesPerSec: bytesPerSec}, nil)
}

// Inventory fetches the subsystem view.
func (c *Console) Inventory(p *sim.Proc) (InventoryResp, error) {
	var inv InventoryResp
	err := c.Request(p, mctp.MIVendorInventory, nil, &inv)
	return inv, err
}

// Counters reads a function's live I/O counters.
func (c *Console) Counters(p *sim.Proc, fn uint8) (map[string]any, error) {
	var out map[string]any
	err := c.Request(p, mctp.MIVendorCounters, FnReq{Fn: fn}, &out)
	return out, err
}

// Health polls one SSD's SMART health.
func (c *Console) Health(p *sim.Proc, ssdIdx int) (HealthResp, error) {
	var out HealthResp
	err := c.Request(p, mctp.MIControllerHealth, SSDReq{SSD: ssdIdx}, &out)
	return out, err
}

// HotUpgrade runs a firmware hot-upgrade and returns its timings.
func (c *Console) HotUpgrade(p *sim.Proc, ssdIdx int, version string, imageKB int) (HotUpgradeResp, error) {
	var out HotUpgradeResp
	err := c.Request(p, mctp.MIVendorHotUpgrade, HotUpgradeReq{SSD: ssdIdx, Version: version, ImageKB: imageKB}, &out)
	return out, err
}

// HotPlugPrepare quiesces a backend so it can be physically removed.
func (c *Console) HotPlugPrepare(p *sim.Proc, ssdIdx int) error {
	return c.Request(p, mctp.MIVendorHotPlugPrep, SSDReq{SSD: ssdIdx}, nil)
}

// HotPlugComplete puts a freshly seated backend into service.
func (c *Console) HotPlugComplete(p *sim.Proc, ssdIdx int) error {
	return c.Request(p, mctp.MIVendorHotPlugDone, SSDReq{SSD: ssdIdx}, nil)
}

// ReadDataStructure issues the standard NVMe-MI data-structure read.
func (c *Console) ReadDataStructure(p *sim.Proc, typ uint8) (DataStructureResp, error) {
	var out DataStructureResp
	err := c.Request(p, mctp.MIReadDataStructure, DataStructureReq{Type: typ}, &out)
	return out, err
}

// SubsystemHealth issues the standard subsystem health status poll.
func (c *Console) SubsystemHealth(p *sim.Proc) (SubsystemHealth, error) {
	var out SubsystemHealth
	err := c.Request(p, mctp.MISubsystemHealthPoll, nil, &out)
	return out, err
}

// Version reports controller and engine firmware revisions.
func (c *Console) Version(p *sim.Proc) (VersionInfo, error) {
	var out VersionInfo
	err := c.Request(p, mctp.MIVendorVersion, nil, &out)
	return out, err
}
