package engine

import (
	"encoding/binary"
	"fmt"

	"bmstore/internal/nvme"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
)

// function is one host-visible PF/VF: a complete virtual NVMe controller.
// Tenants drive it with the stock kernel NVMe driver — this is the
// transparency property that lets BM-Store deploy on bare-metal hosts.
type function struct {
	e  *Engine
	id pcie.FuncID

	regAQA, regASQ, regACQ uint64
	enabled                bool

	sqs map[uint16]*feSQ
	cqs map[uint16]*feCQ

	ns *Namespace

	// cqeBuf is the CQE encode scratch: DMAWrite copies synchronously into
	// host memory, so one reusable buffer replaces a per-CQE escape.
	cqeBuf [nvme.CQESize]byte
}

type feSQ struct {
	id       uint16
	ring     nvme.Ring
	cqid     uint16
	head     uint32
	tail     uint32
	fetching bool
	fs       *feFetch // I/O queue fetch state, created on first doorbell
}

type feCQ struct {
	id    uint16
	ring  nvme.Ring
	tail  uint32
	phase bool
}

func newFunction(e *Engine, id pcie.FuncID) *function {
	return &function{
		e: e, id: id,
		sqs: make(map[uint16]*feSQ),
		cqs: make(map[uint16]*feCQ),
	}
}

// Bound returns the namespace bound to this function, if any.
func (f *function) Bound() *Namespace { return f.ns }

// ID returns the PCIe function ID.
func (f *function) ID() pcie.FuncID { return f.id }

func (f *function) regWrite(off, val uint64) {
	if qid, isCQ, ok := nvme.DoorbellQueue(off); ok {
		f.doorbell(qid, isCQ, uint32(val))
		return
	}
	switch off {
	case regAQAOff:
		f.regAQA = val
	case regASQOff:
		f.regASQ = val
	case regACQOff:
		f.regACQ = val
	case regCCOff:
		if val&1 == 1 && !f.enabled {
			f.enable()
		} else if val&1 == 0 {
			f.disable()
		}
	}
}

// Front-end register offsets mirror the standard NVMe controller map.
const (
	regCCOff  = 0x14
	regAQAOff = 0x24
	regASQOff = 0x28
	regACQOff = 0x30
)

func (f *function) enable() {
	asqs := uint32(f.regAQA&0xFFF) + 1
	acqs := uint32(f.regAQA>>16&0xFFF) + 1
	f.sqs[0] = &feSQ{id: 0, ring: nvme.Ring{Base: f.regASQ, Entries: asqs, EntrySz: nvme.SQESize}}
	f.cqs[0] = &feCQ{id: 0, ring: nvme.Ring{Base: f.regACQ, Entries: acqs, EntrySz: nvme.CQESize}, phase: true}
	f.enabled = true
}

func (f *function) disable() {
	f.enabled = false
	f.sqs = make(map[uint16]*feSQ)
	f.cqs = make(map[uint16]*feCQ)
}

func (f *function) doorbell(qid uint16, isCQ bool, val uint32) {
	if !f.enabled || isCQ {
		return
	}
	sq, ok := f.sqs[qid]
	if !ok {
		return
	}
	sq.tail = val % sq.ring.Entries
	if sq.fetching {
		return
	}
	sq.fetching = true
	if qid == 0 {
		// Admin queues are served by processes: rare, stateful commands.
		f.e.env.Go(fmt.Sprintf("engine/fn%d/sq%d", f.id, qid), func(p *sim.Proc) {
			f.adminFetchLoop(p, sq)
		})
		return
	}
	// I/O queues run the Fig. 6 pipeline as a continuation chain
	// (fastpath.go), starting one queue hop from now.
	if sq.fs == nil {
		sq.fs = newFeFetch(f, sq)
	}
	f.e.env.Schedule(0, sq.fs.stepFn)
}

// adminFetchLoop is the target controller's front half for the admin queue:
// it DMA-reads SQEs from host memory in order and hands each to its own
// process. I/O queues run the same steps as continuations (feFetch).
func (f *function) adminFetchLoop(p *sim.Proc, sq *feSQ) {
	defer func() { sq.fetching = false }()
	for sq.head != sq.tail {
		if !f.enabled {
			return
		}
		var buf [nvme.SQESize]byte
		done := f.e.hostPort.DMARead(sq.ring.SlotAddr(sq.head), nvme.SQESize, buf[:])
		if w := done - p.Now(); w > 0 {
			p.Sleep(w)
		}
		cmd := nvme.DecodeCommand(&buf)
		sq.head = sq.ring.Next(sq.head)
		sqHead := sq.head
		p.Sleep(f.e.cfg.FetchLatency)
		f.e.env.Go("engine/admin", func(ap *sim.Proc) { f.handleAdmin(ap, sq, cmd, sqHead) })
	}
}

// postCQE writes one completion entry into the function's CQ in host
// memory and raises the MSI for it (step 7 of the paper's Fig. 6).
func (f *function) postCQE(cqid uint16, cpl nvme.Completion) {
	if f.e.dead {
		return // a dead card posts no completions
	}
	cq, ok := f.cqs[cqid]
	if !ok {
		return
	}
	cpl.Phase = cq.phase
	cpl.Encode(&f.cqeBuf)
	addr := cq.ring.SlotAddr(cq.tail)
	cq.tail = cq.ring.Next(cq.tail)
	if cq.tail == 0 {
		cq.phase = !cq.phase
	}
	done := f.e.hostPort.DMAWrite(addr, nvme.CQESize, f.cqeBuf[:])
	delay := done - f.e.env.Now()
	if delay < 0 {
		delay = 0
	}
	f.e.postIRQ(delay, f.id, int(cqid))
}

// handleAdmin services tenant-visible admin commands locally. Management
// operations (namespace creation, firmware, …) are NOT exposed here — they
// belong to the out-of-band path through the BMS-Controller.
func (f *function) handleAdmin(p *sim.Proc, sq *feSQ, cmd nvme.Command, sqHead uint32) {
	if f.e.dead {
		return
	}
	epoch := f.e.epoch
	p.Sleep(2 * sim.Microsecond)
	if f.e.dead || f.e.epoch != epoch {
		return // the admin command raced a crash; host times out and retries
	}
	cpl := nvme.Completion{CID: cmd.CID, SQID: sq.id, SQHead: uint16(sqHead)}
	switch cmd.Opcode {
	case nvme.AdminIdentify:
		cpl.Status = f.adminIdentify(p, cmd)
	case nvme.AdminCreateIOCQ:
		qid := uint16(cmd.CDW10)
		size := cmd.CDW10>>16 + 1
		if qid == 0 || size < 2 {
			cpl.Status = nvme.StatusInvalidQueueID
			break
		}
		f.cqs[qid] = &feCQ{id: qid, ring: nvme.Ring{Base: cmd.PRP1, Entries: size, EntrySz: nvme.CQESize}, phase: true}
	case nvme.AdminCreateIOSQ:
		qid := uint16(cmd.CDW10)
		size := cmd.CDW10>>16 + 1
		cqid := uint16(cmd.CDW11 >> 16)
		if qid == 0 || size < 2 {
			cpl.Status = nvme.StatusInvalidQueueID
			break
		}
		if _, ok := f.cqs[cqid]; !ok {
			cpl.Status = nvme.StatusInvalidQueueID
			break
		}
		f.sqs[qid] = &feSQ{id: qid, ring: nvme.Ring{Base: cmd.PRP1, Entries: size, EntrySz: nvme.SQESize}, cqid: cqid}
	case nvme.AdminDeleteIOSQ:
		delete(f.sqs, uint16(cmd.CDW10))
	case nvme.AdminDeleteIOCQ:
		delete(f.cqs, uint16(cmd.CDW10))
	case nvme.AdminSetFeatures, nvme.AdminGetFeatures, nvme.AdminAbort:
		// accepted, no effect in the model
	default:
		// NS management, firmware, format: vendor-only, via out-of-band.
		cpl.Status = nvme.StatusInvalidOpcode
	}
	f.postCQE(sq.cqid, cpl)
}

func (f *function) adminIdentify(p *sim.Proc, cmd nvme.Command) nvme.Status {
	page := make([]byte, nvme.IdentifyPageSize)
	switch cmd.CDW10 & 0xFF {
	case nvme.CNSController:
		nn := uint32(0)
		var cap uint64
		if f.ns != nil {
			nn = 1
			cap = f.ns.SizeLBA * f.ns.blockSize
		}
		ic := nvme.IdentifyController{
			VID: 0x1DED, SSVID: 0x1DED, // Alibaba-style vendor ID
			Serial:        fmt.Sprintf("BMS-VF%03d", f.id),
			Model:         "BM-Store Virtual NVMe Disk",
			Firmware:      f.e.Firmware,
			NN:            nn,
			TotalCapBytes: cap,
		}
		ic.Encode(page)
	case nvme.CNSNamespace:
		if f.ns == nil || cmd.NSID != FrontNSID {
			return nvme.StatusInvalidNamespace
		}
		in := nvme.IdentifyNamespace{NSZE: f.ns.SizeLBA, NCAP: f.ns.SizeLBA}
		in.Encode(page)
	case nvme.CNSActiveNSList:
		if f.ns != nil {
			binary.LittleEndian.PutUint32(page, FrontNSID)
		}
	default:
		return nvme.StatusInvalidField
	}
	done := f.e.hostPort.DMAWrite(cmd.PRP1, len(page), page)
	if w := done - p.Now(); w > 0 {
		p.Sleep(w)
	}
	return nvme.StatusSuccess
}

// FrontNSID is the namespace ID a bound namespace appears as on its
// function (each PF/VF exposes exactly one).
const FrontNSID = 1

// subCommand is one per-extent backend command with rewritten PRPs.
type subCommand struct {
	ssd     int
	physLBA uint64
	blocks  uint32
	prp1    uint64
	prp2    uint64
}

// simpleSub handles the no-list no-split case: a single extent covered by at
// most two pages, tagged in the pipeline without touching memory. It appends
// the one sub-command to subs and reports whether it applied.
func (f *function) simpleSub(cmd nvme.Command, extents []Extent, nBytes int, subs []subCommand) ([]subCommand, bool) {
	if len(extents) != 1 || nBytes > 2*nvme.PageSize || cmd.PRP1%nvme.PageSize+uint64(nBytes) > 2*nvme.PageSize {
		return subs, false
	}
	var prp2 uint64
	if cmd.PRP2 != 0 {
		prp2 = EncodeGlobalPRP(f.id, cmd.PRP2, false)
	}
	return append(subs, subCommand{
		ssd:     extents[0].SSD,
		physLBA: extents[0].PhysLBA,
		blocks:  extents[0].Blocks,
		prp1:    EncodeGlobalPRP(f.id, cmd.PRP1, false),
		prp2:    prp2,
	}), true
}

// assembleSubs splits walked host segments along extent boundaries and
// rewrites each piece as a global-PRP sub-command. It appends into the
// caller's subs/lists slices (pass nil for fresh ones) and returns the
// per-extent scratch segment slice for reuse; it consumes no virtual time.
func (f *function) assembleSubs(segs []nvme.Segment, extents []Extent, subs []subCommand, lists []uint64, extScratch []nvme.Segment) ([]subCommand, []uint64, []nvme.Segment) {
	segIdx, segOff := 0, 0
	for _, ext := range extents {
		extBytes := int(ext.Blocks) * int(f.ns.blockSize)
		extSegs := extScratch[:0]
		for extBytes > 0 {
			s := segs[segIdx]
			take := s.Len - segOff
			if take > extBytes {
				take = extBytes
			}
			extSegs = append(extSegs, nvme.Segment{Addr: s.Addr + uint64(segOff), Len: take})
			segOff += take
			extBytes -= take
			if segOff == s.Len {
				segIdx++
				segOff = 0
			}
		}
		var prp1, prp2 uint64
		prp1, prp2, lists = f.buildGlobalPRPs(extSegs, lists)
		extScratch = extSegs
		subs = append(subs, subCommand{
			ssd: ext.SSD, physLBA: ext.PhysLBA, blocks: ext.Blocks,
			prp1: prp1, prp2: prp2,
		})
	}
	return subs, lists, extScratch
}

// buildGlobalPRPs lays tagged segments out as PRP1/PRP2, writing a chained
// global-PRP list into chip memory when more than two entries are needed.
// Allocated list pages are appended to lists.
func (f *function) buildGlobalPRPs(segs []nvme.Segment, lists []uint64) (uint64, uint64, []uint64) {
	prp1 := EncodeGlobalPRP(f.id, segs[0].Addr, false)
	if len(segs) == 1 {
		return prp1, 0, lists
	}
	if len(segs) == 2 {
		return prp1, EncodeGlobalPRP(f.id, segs[1].Addr, false), lists
	}
	const perList = nvme.PageSize / 8
	listAddr := f.e.allocChipPage()
	lists = append(lists, listAddr)
	prp2 := listAddr | ChipMemFlag // list pointer into chip memory
	cur := listAddr
	slot := 0
	rest := segs[1:]
	for i, s := range rest {
		if slot == perList-1 && len(rest)-i > 1 {
			next := f.e.allocChipPage()
			lists = append(lists, next)
			f.e.chip.WriteU64(cur+uint64(slot)*8, next|ChipMemFlag)
			cur = next
			slot = 0
		}
		f.e.chip.WriteU64(cur+uint64(slot)*8, EncodeGlobalPRP(f.id, s.Addr, false))
		slot++
	}
	return prp1, prp2, lists
}
