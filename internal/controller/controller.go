// Package controller implements the BMS-Controller: the management half of
// BM-Store that runs on the card's embedded ARM cores. It terminates the
// MCTP-over-PCIe out-of-band channel, parses NVMe-MI commands from the
// remote console, and drives the BMS-Engine over the (simulated) AXI bus:
// namespace/QoS configuration, the I/O monitor, firmware hot-upgrade with
// I/O-context save/restore, and hot-plug with front-end identity
// preservation (§IV-D of the paper).
package controller

import (
	"encoding/json"
	"fmt"

	"bmstore/internal/engine"
	"bmstore/internal/fault"
	"bmstore/internal/mctp"
	"bmstore/internal/nvme"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
	"bmstore/internal/trace"
)

// The BMS-Controller's trace records.
var (
	trMI        = trace.NewKey("bmsc", "mi")
	trHuSave    = trace.NewKey("bmsc", "hu-save")
	trHuRestore = trace.NewKey("bmsc", "hu-restore")
)

// Version is the BMS-Controller firmware revision reported to the console.
const Version = "BMSC 1.0.3"

// The controller's timing model, as deployed.
const (
	// axiLatency is charged per engine register access from the ARM side.
	axiLatency = 2 * sim.Microsecond
	// ctxSaveLatency/ctxRestoreLatency model the engine-context
	// store/reload work around a firmware activation; together they are
	// the ~100 ms "BM-Store processing time" of Table IX.
	ctxSaveLatency    = 45 * sim.Millisecond
	ctxRestoreLatency = 45 * sim.Millisecond
	// monitorInterval is the I/O monitor sampling period.
	monitorInterval = 100 * sim.Millisecond
)

// EID is the controller's MCTP endpoint ID.
const EID = 0x1D

// Controller is one BMS-Controller instance bound to an engine.
type Controller struct {
	env *sim.Env
	eng *engine.Engine
	ep  *mctp.Endpoint
	tr  *trace.Tracer

	// nMI counts NVMe-MI commands served, read at export as mi_cmds. It
	// lives apart from the Controller so that a registry outliving the rig
	// (an obs.Set keeps every rig's) holds the count, not the rig.
	nMI *uint64

	namespaces map[string]*engine.Namespace
	reqQ       *sim.Queue[inbound]

	monitor map[pcie.FuncID][]MonitorSample
	lastCtr map[pcie.FuncID]engine.IOCounters

	// Events is the controller's operational log.
	Events []string
}

type inbound struct {
	src uint8
	msg mctp.MIMessage
}

// MonitorSample is one I/O-monitor observation for a function.
type MonitorSample struct {
	AtMS       float64
	ReadIOPS   float64
	WriteIOPS  float64
	ReadMBps   float64
	WriteMBps  float64
	ReadLatP99 float64 // us
}

// New starts a controller on the engine: it claims the engine's VDM path,
// spawns the command server and the I/O monitor.
func New(env *sim.Env, eng *engine.Engine) *Controller {
	c := &Controller{
		env: env, eng: eng,
		tr:         env.Tracer(),
		namespaces: make(map[string]*engine.Namespace),
		reqQ:       sim.NewQueue[inbound](env),
		monitor:    make(map[pcie.FuncID][]MonitorSample),
		lastCtr:    make(map[pcie.FuncID]engine.IOCounters),
		nMI:        new(uint64),
	}
	nMI := c.nMI
	env.Metrics().Component("bmsc").CounterOf("mi_cmds", func() uint64 { return *nMI })
	c.ep = mctp.NewEndpoint(EID, func(raw []byte) { eng.VDMToHost(raw) })
	if flt := env.Faults(); flt != nil {
		// fault.MCTPRx rules targeting "controller" eat inbound packets on
		// the card side of the out-of-band path.
		c.ep.SetRxFault(func() bool {
			return flt.Hit(fault.MCTPRx, "controller", env.Now()) != nil
		})
	}
	eng.SetVDMHandler(c.ep.Receive)
	c.ep.SetHandler(func(src uint8, msgType uint8, body []byte) {
		if msgType != mctp.MsgTypeNVMeMI {
			return
		}
		msg, err := mctp.DecodeMI(body)
		if err != nil {
			return
		}
		if msg.Response {
			return
		}
		c.reqQ.Put(inbound{src: src, msg: msg})
	})
	env.Go("bmsc/server", c.serve)
	env.Go("bmsc/monitor", c.runMonitor)
	return c
}

func (c *Controller) logf(format string, args ...any) {
	c.Events = append(c.Events, fmt.Sprintf("[%8.3fms] ", float64(c.env.Now())/1e6)+fmt.Sprintf(format, args...))
}

// axi charges one engine access over the AXI bus.
func (c *Controller) axi(p *sim.Proc) { p.Sleep(axiLatency) }

// serve is the NVMe-MI command loop.
func (c *Controller) serve(p *sim.Proc) {
	for {
		in := c.reqQ.Get(p)
		resp := c.handle(p, in.msg)
		resp.Response = true
		resp.Opcode = in.msg.Opcode
		resp.RequestID = in.msg.RequestID
		c.ep.Send(in.src, mctp.MsgTypeNVMeMI, resp.Encode())
	}
}

func (c *Controller) handle(p *sim.Proc, msg mctp.MIMessage) mctp.MIMessage {
	c.tr.Emit(c.env.Now(), trMI, uint64(msg.Opcode), uint64(msg.RequestID), "")
	*c.nMI++
	fail := func(status uint8, err error) mctp.MIMessage {
		c.logf("op %#x failed: %v", msg.Opcode, err)
		return mctp.MIMessage{Status: status, Payload: []byte(err.Error())}
	}
	okJSON := func(v any) mctp.MIMessage {
		b, err := json.Marshal(v)
		if err != nil {
			return fail(mctp.MIStatusInternal, err)
		}
		return mctp.MIMessage{Status: mctp.MIStatusSuccess, Payload: b}
	}
	p.Sleep(20 * sim.Microsecond) // ARM-side command parsing

	switch msg.Opcode {
	case mctp.MIVendorVersion:
		return okJSON(VersionInfo{Controller: Version, Engine: c.eng.Firmware})

	case mctp.MIVendorInventory:
		return okJSON(c.inventory(p))

	case mctp.MIVendorCreateNS:
		var req CreateNSReq
		if err := json.Unmarshal(msg.Payload, &req); err != nil {
			return fail(mctp.MIStatusInvalidParm, err)
		}
		if _, dup := c.namespaces[req.Name]; dup {
			return fail(mctp.MIStatusInvalidParm, fmt.Errorf("namespace %q exists", req.Name))
		}
		c.axi(p)
		ns, err := c.eng.CreateNamespace(req.Name, req.SizeBytes, req.SSDs)
		if err != nil {
			return fail(mctp.MIStatusInternal, err)
		}
		c.namespaces[req.Name] = ns
		c.logf("created namespace %q (%d MB) on SSDs %v", req.Name, req.SizeBytes>>20, req.SSDs)
		return okJSON(CreateNSResp{SizeBytes: ns.SizeLBA * ssd.BlockSize})

	case mctp.MIVendorDestroyNS:
		var req NameReq
		if err := json.Unmarshal(msg.Payload, &req); err != nil {
			return fail(mctp.MIStatusInvalidParm, err)
		}
		ns, ok := c.namespaces[req.Name]
		if !ok {
			return fail(mctp.MIStatusInvalidParm, fmt.Errorf("no namespace %q", req.Name))
		}
		c.axi(p)
		if err := c.eng.DestroyNamespace(ns); err != nil {
			return fail(mctp.MIStatusInternal, err)
		}
		delete(c.namespaces, req.Name)
		return okJSON(struct{}{})

	case mctp.MIVendorBindNS:
		var req BindReq
		if err := json.Unmarshal(msg.Payload, &req); err != nil {
			return fail(mctp.MIStatusInvalidParm, err)
		}
		ns, ok := c.namespaces[req.Name]
		if !ok {
			return fail(mctp.MIStatusInvalidParm, fmt.Errorf("no namespace %q", req.Name))
		}
		c.axi(p)
		if err := c.eng.Bind(pcie.FuncID(req.Fn), ns); err != nil {
			return fail(mctp.MIStatusInternal, err)
		}
		c.logf("bound %q to function %d", req.Name, req.Fn)
		return okJSON(struct{}{})

	case mctp.MIVendorUnbindNS:
		var req FnReq
		if err := json.Unmarshal(msg.Payload, &req); err != nil {
			return fail(mctp.MIStatusInvalidParm, err)
		}
		c.axi(p)
		c.eng.Unbind(pcie.FuncID(req.Fn))
		return okJSON(struct{}{})

	case mctp.MIVendorSetQoS:
		var req QoSReq
		if err := json.Unmarshal(msg.Payload, &req); err != nil {
			return fail(mctp.MIStatusInvalidParm, err)
		}
		ns, ok := c.namespaces[req.Name]
		if !ok {
			return fail(mctp.MIStatusInvalidParm, fmt.Errorf("no namespace %q", req.Name))
		}
		c.axi(p)
		ns.SetQoS(engine.QoSLimits{IOPS: req.IOPS, BytesPerSec: req.BytesPerSec})
		c.logf("QoS on %q: %.0f IOPS, %.0f MB/s", req.Name, req.IOPS, req.BytesPerSec/1e6)
		return okJSON(struct{}{})

	case mctp.MIVendorCounters:
		var req FnReq
		if err := json.Unmarshal(msg.Payload, &req); err != nil {
			return fail(mctp.MIStatusInvalidParm, err)
		}
		c.axi(p)
		ctr, ok := c.eng.Counters(pcie.FuncID(req.Fn))
		if !ok {
			return fail(mctp.MIStatusInvalidParm, fmt.Errorf("function %d has no namespace", req.Fn))
		}
		return okJSON(ctr)

	case mctp.MIVendorMonitorRead:
		var req FnReq
		if err := json.Unmarshal(msg.Payload, &req); err != nil {
			return fail(mctp.MIStatusInvalidParm, err)
		}
		return okJSON(c.monitor[pcie.FuncID(req.Fn)])

	case mctp.MIReadDataStructure:
		var req DataStructureReq
		if err := json.Unmarshal(msg.Payload, &req); err != nil {
			return fail(mctp.MIStatusInvalidParm, err)
		}
		ds, err := c.readDataStructure(p, req.Type)
		if err != nil {
			return fail(mctp.MIStatusInvalidParm, err)
		}
		return okJSON(ds)

	case mctp.MISubsystemHealthPoll:
		return okJSON(c.subsystemHealth(p))

	case mctp.MIControllerHealth:
		var req SSDReq
		if err := json.Unmarshal(msg.Payload, &req); err != nil {
			return fail(mctp.MIStatusInvalidParm, err)
		}
		h, err := c.health(p, req.SSD)
		if err != nil {
			return fail(mctp.MIStatusInternal, err)
		}
		return okJSON(h)

	case mctp.MIVendorHotUpgrade:
		var req HotUpgradeReq
		if err := json.Unmarshal(msg.Payload, &req); err != nil {
			return fail(mctp.MIStatusInvalidParm, err)
		}
		rep, err := c.HotUpgrade(p, req)
		if err != nil {
			return fail(mctp.MIStatusInternal, err)
		}
		return okJSON(rep)

	case mctp.MIVendorHotPlugPrep:
		var req SSDReq
		if err := json.Unmarshal(msg.Payload, &req); err != nil {
			return fail(mctp.MIStatusInvalidParm, err)
		}
		c.eng.QuiesceBackend(p, req.SSD)
		c.logf("hot-plug: backend %d quiesced, safe to remove", req.SSD)
		return okJSON(struct{}{})

	case mctp.MIVendorHotPlugDone:
		var req SSDReq
		if err := json.Unmarshal(msg.Payload, &req); err != nil {
			return fail(mctp.MIStatusInvalidParm, err)
		}
		if err := c.eng.ResumeBackend(p, req.SSD); err != nil {
			return fail(mctp.MIStatusInternal, err)
		}
		c.logf("hot-plug: backend %d back in service", req.SSD)
		return okJSON(struct{}{})

	default:
		return fail(mctp.MIStatusInvalidOp, fmt.Errorf("unknown MI opcode %#x", msg.Opcode))
	}
}

// inventory builds the subsystem view the console renders.
func (c *Controller) inventory(p *sim.Proc) InventoryResp {
	c.axi(p)
	var inv InventoryResp
	for i := 0; i < c.eng.Backends(); i++ {
		d := c.eng.BackendDevice(i)
		inv.Backends = append(inv.Backends, BackendInfo{
			Index:    i,
			Serial:   d.Config().Serial,
			Model:    d.Config().Model,
			Firmware: d.FirmwareVersion(),
			GB:       d.Config().CapacityBytes >> 30,
			Ready:    c.eng.BackendReady(i),
		})
	}
	for name, ns := range c.namespaces {
		b := NamespaceInfo{Name: name, SizeGB: ns.SizeLBA * ssd.BlockSize >> 30}
		for fn := 0; fn < c.eng.NumFunctions(); fn++ {
			if c.eng.Function(pcie.FuncID(fn)).Bound() == ns {
				f := fn
				b.BoundFn = &f
			}
		}
		inv.Namespaces = append(inv.Namespaces, b)
	}
	return inv
}

// readDataStructure answers the standard NVMe-MI Read NVMe-MI Data
// Structure command for the subsystem, port and controller views.
func (c *Controller) readDataStructure(p *sim.Proc, typ uint8) (DataStructureResp, error) {
	c.axi(p)
	switch typ {
	case DSSubsystem:
		return DataStructureResp{
			Subsystem: &SubsystemInfo{
				NQN:         "nqn.2023-01.com.bmstore:card0",
				Controllers: c.eng.NumFunctions(),
				Backends:    c.eng.Backends(),
			},
		}, nil
	case DSPorts:
		return DataStructureResp{
			Ports: []PortInfo{{ID: 0, Kind: "PCIe Gen3 x16 (host)"},
				{ID: 1, Kind: "PCIe Gen3 x8 (backend 0-1)"},
				{ID: 2, Kind: "PCIe Gen3 x8 (backend 2-3)"}},
		}, nil
	case DSControllers:
		var out []int
		for fn := 0; fn < c.eng.NumFunctions(); fn++ {
			if c.eng.Function(pcie.FuncID(fn)).Bound() != nil {
				out = append(out, fn)
			}
		}
		return DataStructureResp{ActiveControllers: out}, nil
	default:
		return DataStructureResp{}, fmt.Errorf("unknown data structure type %d", typ)
	}
}

// subsystemHealth answers the standard NVMe-MI Subsystem Health Status
// Poll: composite status over every backend.
func (c *Controller) subsystemHealth(p *sim.Proc) SubsystemHealth {
	c.axi(p)
	h := SubsystemHealth{Healthy: true}
	for i := 0; i < c.eng.Backends(); i++ {
		bh, err := c.health(p, i)
		if err != nil {
			h.Healthy = false
			continue
		}
		if bh.TempC > h.CompositeTempC {
			h.CompositeTempC = bh.TempC
		}
		if bh.PercentUsed > h.MaxPercentUsed {
			h.MaxPercentUsed = bh.PercentUsed
		}
		if !c.eng.BackendReady(i) {
			h.DegradedDrives++
		}
	}
	if h.DegradedDrives > 0 {
		h.Healthy = false
	}
	return h
}

// health polls one SSD's SMART page through the engine's admin passthrough.
func (c *Controller) health(p *sim.Proc, idx int) (HealthResp, error) {
	if idx < 0 || idx >= c.eng.Backends() {
		return HealthResp{}, fmt.Errorf("no backend %d", idx)
	}
	c.axi(p)
	page := make([]byte, nvme.IdentifyPageSize)
	cpl := c.eng.BackendAdmin(p, idx, nvme.Command{
		Opcode: nvme.AdminGetLogPage, CDW10: 0x02,
	}, nil, page)
	if cpl.Status.IsError() {
		return HealthResp{}, fmt.Errorf("log page: status %#x", cpl.Status)
	}
	tempK := uint16(page[1]) | uint16(page[2])<<8
	return HealthResp{
		SSD:         idx,
		TempC:       int(tempK) - 273,
		PercentUsed: int(page[5]),
		Firmware:    c.eng.BackendFirmware(idx),
	}, nil
}

// runMonitor is the I/O monitor: it periodically reads the engine's
// counter registers over AXI and keeps a per-function rate history.
func (c *Controller) runMonitor(p *sim.Proc) {
	for {
		p.Sleep(monitorInterval)
		for fn := 0; fn < c.eng.NumFunctions(); fn++ {
			id := pcie.FuncID(fn)
			cur, ok := c.eng.Counters(id)
			if !ok {
				continue
			}
			c.axi(p)
			prev := c.lastCtr[id]
			c.lastCtr[id] = cur
			dt := float64(monitorInterval) / 1e9
			c.monitor[id] = append(c.monitor[id], MonitorSample{
				AtMS:       float64(p.Now()) / 1e6,
				ReadIOPS:   float64(cur.ReadOps-prev.ReadOps) / dt,
				WriteIOPS:  float64(cur.WriteOps-prev.WriteOps) / dt,
				ReadMBps:   float64(cur.ReadBytes-prev.ReadBytes) / 1e6 / dt,
				WriteMBps:  float64(cur.WriteBytes-prev.WriteBytes) / 1e6 / dt,
				ReadLatP99: float64(cur.ReadLatP99) / 1e3,
			})
			if n := len(c.monitor[id]); n > 4096 {
				c.monitor[id] = c.monitor[id][n-4096:]
			}
		}
	}
}

// HotUpgrade runs the full firmware hot-upgrade of §IV-D: download while
// I/O flows, quiesce + save I/O context, activate (SSD resets for several
// seconds), restore context, resume — the host never sees an error.
func (c *Controller) HotUpgrade(p *sim.Proc, req HotUpgradeReq) (HotUpgradeResp, error) {
	if req.SSD < 0 || req.SSD >= c.eng.Backends() {
		return HotUpgradeResp{}, fmt.Errorf("no backend %d", req.SSD)
	}
	if req.ImageKB <= 0 {
		req.ImageKB = 256
	}
	t0 := p.Now()
	c.logf("hot-upgrade of SSD %d to %q starting (%d KB image)", req.SSD, req.Version, req.ImageKB)

	// 1. Stage the image while tenant I/O continues. The image is zeros
	// past the version string at its head, so each chunk is built in one
	// reused buffer rather than cut from a copy of the whole image.
	const chunk = 4096
	size := req.ImageKB << 10
	buf := make([]byte, chunk)
	for off := 0; off < size; off += chunk {
		piece := buf[:min(chunk, size-off)]
		clear(piece)
		if off < len(req.Version) {
			copy(piece, req.Version[off:])
		}
		cpl := c.eng.BackendAdmin(p, req.SSD, nvme.Command{
			Opcode: nvme.AdminFWDownload,
			CDW10:  uint32(len(piece))/4 - 1,
			CDW11:  uint32(off / 4),
		}, piece, nil)
		if cpl.Status.IsError() {
			return HotUpgradeResp{}, fmt.Errorf("fw download: status %#x", cpl.Status)
		}
	}

	// 2. Quiesce: drain in-flight commands and store the I/O context.
	tq := p.Now()
	c.eng.QuiesceBackend(p, req.SSD)
	p.Sleep(ctxSaveLatency)
	c.tr.Emit(c.env.Now(), trHuSave, uint64(req.SSD), uint64(p.Now()-tq), "")

	// 3. Activate. The commit completes, then the device drops off the bus.
	tc := p.Now()
	cpl := c.eng.BackendAdmin(p, req.SSD, nvme.Command{Opcode: nvme.AdminFWCommit, CDW10: 3 << 3}, nil, nil)
	if cpl.Status.IsError() {
		// Leave the gate closed? No — restore service on the old firmware.
		_ = c.eng.ResumeBackend(p, req.SSD)
		return HotUpgradeResp{}, fmt.Errorf("fw commit: status %#x", cpl.Status)
	}
	p.Sleep(sim.Millisecond) // reset window begins
	c.eng.WaitBackendReset(p, req.SSD)
	tr := p.Now()

	// 4. Restore: rebuild the backend queues and reload the I/O context.
	p.Sleep(ctxRestoreLatency)
	if err := c.eng.ResumeBackend(p, req.SSD); err != nil {
		return HotUpgradeResp{}, fmt.Errorf("resume: %w", err)
	}
	tEnd := p.Now()
	c.tr.Emit(tEnd, trHuRestore, uint64(req.SSD), uint64(tEnd-tr), "")

	rep := HotUpgradeResp{
		Firmware:     c.eng.BackendFirmware(req.SSD),
		TotalMS:      float64(tEnd-t0) / 1e6,
		IOPauseMS:    float64(tEnd-tq) / 1e6,
		SSDResetMS:   float64(tr-tc) / 1e6,
		EngineProcMS: float64(tEnd-tq-(tr-tc)) / 1e6,
	}
	c.logf("hot-upgrade of SSD %d done: fw %q, total %.0f ms, I/O pause %.0f ms",
		req.SSD, rep.Firmware, rep.TotalMS, rep.IOPauseMS)
	return rep, nil
}

// PhysicalSwap models the datacenter technician pulling the quiesced SSD
// and seating a replacement; the console then issues HotPlugDone.
func (c *Controller) PhysicalSwap(p *sim.Proc, idx int, dev *ssd.SSD, link *pcie.Link) error {
	c.logf("hot-plug: replacing backend %d with %s", idx, dev.Config().Serial)
	return c.eng.ReplaceBackend(p, idx, dev, link)
}
