package engine

import (
	"encoding/binary"
	"fmt"
	"slices"

	"bmstore/internal/nvme"
	"bmstore/internal/nvmet"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
)

// function is one host-visible PF/VF: a complete virtual NVMe controller.
// Tenants drive it with the stock kernel NVMe driver — this is the
// transparency property that lets BM-Store deploy on bare-metal hosts. The
// queue protocol is the shared target controller's (internal/nvmet); the
// function is its owner and supplies what is the engine's own: the Fig. 6
// pipeline for I/O commands (pipeline.go) and the tenant-visible admin set.
type function struct {
	e   *Engine
	id  pcie.FuncID
	ctl *nvmet.Controller

	ns *Namespace
}

func newFunction(e *Engine, id pcie.FuncID) *function {
	f := &function{e: e, id: id}
	f.ctl = nvmet.New(e.env, f, id, nvmet.Config{
		FetchLatency: fetchLatency,
		ExecProc:     "engine/admin",
	})
	return f
}

// Bound returns the namespace bound to this function, if any.
func (f *function) Bound() *Namespace { return f.ns }

// MayFetch implements nvmet.Owner: a live card always fetches (a dead one
// sees no doorbells, Engine.RegWrite drops them, and is disabled).
func (f *function) MayFetch() bool { return true }

// MayPost implements nvmet.Owner: a dead card posts no completions.
func (f *function) MayPost() bool { return !f.e.dead }

// FetchStall implements nvmet.Owner; no fault point freezes the front end.
func (f *function) FetchStall(uint16) sim.Time { return 0 }

// StartIO implements nvmet.Owner: the command's Fig. 6 pipeline starts here,
// inside the controller's dispatch step. Its first stage books nothing the
// queue's next SQE fetch books — it waits out MapLatency, or posts an error
// CQE on the other direction of the host link, or rings a back-end doorbell
// on another link — so running it before that fetch is booked rather than
// one queue hop after moves no reservation.
func (f *function) StartIO(sq *nvmet.SQ, cmd nvme.Command, sqHead uint32) {
	f.e.getFeIO(f, sq, cmd, sqHead).start()
}

// ExecAdmin implements nvmet.Owner: it services tenant-visible admin
// commands locally. Management operations (namespace creation, firmware, …)
// are NOT exposed here — they belong to the out-of-band path through the
// BMS-Controller.
func (f *function) ExecAdmin(p *sim.Proc, sq *nvmet.SQ, cmd nvme.Command, sqHead uint32) {
	if f.e.dead {
		return
	}
	epoch := f.e.epoch
	p.Sleep(2 * sim.Microsecond)
	if f.e.dead || f.e.epoch != epoch {
		return // the admin command raced a crash; host times out and retries
	}
	cpl := nvme.Completion{CID: cmd.CID, SQID: sq.ID, SQHead: uint16(sqHead)}
	switch cmd.Opcode {
	case nvme.AdminIdentify:
		cpl.Status = f.adminIdentify(p, cmd)
	case nvme.AdminCreateIOCQ, nvme.AdminCreateIOSQ, nvme.AdminDeleteIOSQ, nvme.AdminDeleteIOCQ:
		cpl.Status = f.ctl.QueueAdmin(cmd)
	case nvme.AdminSetFeatures, nvme.AdminGetFeatures, nvme.AdminAbort:
		// accepted, no effect in the model
	default:
		// NS management, firmware, format: vendor-only, via out-of-band.
		cpl.Status = nvme.StatusInvalidOpcode
	}
	f.ctl.PostCQE(sq.CQID, cpl)
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
	// An extent's share of the transfer is at most all of its segments.
	extScratch = slices.Grow(extScratch[:0], len(segs))
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
// global-PRP list into chip memory when more than two entries are needed:
// each list page is encoded in the engine's scratch and stored with one
// write of exactly the entries it holds, chain pointer included, so what a
// recycled page held beyond them stays. Allocated list pages are appended to
// lists.
func (f *function) buildGlobalPRPs(segs []nvme.Segment, lists []uint64) (uint64, uint64, []uint64) {
	prp1 := EncodeGlobalPRP(f.id, segs[0].Addr, false)
	if len(segs) == 1 {
		return prp1, 0, lists
	}
	if len(segs) == 2 {
		return prp1, EncodeGlobalPRP(f.id, segs[1].Addr, false), lists
	}
	e := f.e
	cur := e.allocChipPage()
	lists = append(lists, cur)
	prp2 := cur | ChipMemFlag // list pointer into chip memory
	for rest := segs[1:]; len(rest) > 0; {
		// A page takes all that is left if it fits, else one entry fewer
		// than it holds and a pointer to the next page.
		k, next := len(rest), uint64(0)
		if k > nvme.PRPsPerList {
			k = nvme.PRPsPerList - 1
			next = e.allocChipPage()
			lists = append(lists, next)
		}
		page := e.listScratch[:0]
		for _, s := range rest[:k] {
			page = binary.LittleEndian.AppendUint64(page, EncodeGlobalPRP(f.id, s.Addr, false))
		}
		if next != 0 {
			page = binary.LittleEndian.AppendUint64(page, next|ChipMemFlag)
		}
		e.chip.Write(cur, page)
		rest, cur = rest[k:], next
	}
	return prp1, prp2, lists
}
