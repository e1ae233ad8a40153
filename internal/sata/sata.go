// Package sata implements the SATA-HDD compatibility path of the paper's
// §VI-A: "to support SATA HDD ... add the logic of the SATA controller to
// the Host Adaptor in BMS-Engine, then develop a module in BMS-Controller
// to process SATA protocol". In this reproduction the bridge presents the
// standard NVMe device surface (so the BMS-Engine's host adaptor drives it
// unchanged, and tenants still see NVMe disks) while the medium underneath
// behaves like a rotating drive: one actuator, seeks, rotational latency,
// and a modest sequential transfer rate.
package sata

import (
	"fmt"
	"math/rand"

	"bmstore/internal/sim"
	"bmstore/internal/ssd"
)

// HDDProfile parameterises the mechanical model.
type HDDProfile struct {
	CapacityBytes  uint64
	RPM            float64
	AvgSeek        sim.Time // average random seek
	TrackSeek      sim.Time // adjacent-track seek
	TransferBps    float64  // media transfer rate
	WriteCacheHit  sim.Time // write-back cache insertion
	CacheBytes     int64    // write cache; beyond it writes see the media
	SeqWindowBytes uint64   // accesses within this of the head are "near"
}

// Enterprise7200 is a 7200 rpm 2 TB nearline drive.
func Enterprise7200() HDDProfile {
	return HDDProfile{
		CapacityBytes:  2000 << 30,
		RPM:            7200,
		AvgSeek:        4200 * sim.Microsecond,
		TrackSeek:      600 * sim.Microsecond,
		TransferBps:    210e6,
		WriteCacheHit:  80 * sim.Microsecond,
		CacheBytes:     128 << 20,
		SeqWindowBytes: 2 << 20,
	}
}

// Media is the rotating medium. It satisfies ssd.Media: one mechanical
// actuator served in arrival order, seek + rotation + transfer per
// non-sequential access.
type Media struct {
	env      *sim.Env
	prof     HDDProfile
	actuator *sim.Resource
	headPos  uint64 // byte position after the last access
	rng      *rand.Rand
	cacheUse int64
	// Stats for tests and monitors.
	Seeks, SequentialHits uint64
}

// NewMedia returns an HDD medium. It panics on a profile the mechanical
// model cannot run — every constructor goes through here, so a bad profile
// fails at construction rather than as a negative sleep mid-run.
func NewMedia(env *sim.Env, prof HDDProfile, name string) *Media {
	switch {
	case prof.TransferBps <= 0:
		panic(fmt.Sprintf("sata: HDDProfile.TransferBps must be positive, got %v", prof.TransferBps))
	case prof.RPM <= 0:
		panic(fmt.Sprintf("sata: HDDProfile.RPM must be positive, got %v", prof.RPM))
	case prof.CapacityBytes == 0:
		panic("sata: HDDProfile.CapacityBytes must be positive, got 0")
	}
	return &Media{
		env:      env,
		prof:     prof,
		actuator: sim.NewResource(env, 1),
		rng:      env.Rand("sata/" + name),
	}
}

// access performs one mechanical operation.
func (m *Media) access(p *sim.Proc, startByte uint64, n int) {
	m.actuator.Acquire(p)
	defer m.actuator.Release()
	dist := int64(startByte) - int64(m.headPos)
	if dist < 0 {
		dist = -dist
	}
	if uint64(dist) > m.prof.SeqWindowBytes {
		m.Seeks++
		// Seek scaled by distance (square-root-ish flattened to linear
		// between track and average seek), plus half a rotation on
		// average.
		frac := float64(dist) / float64(m.prof.CapacityBytes)
		if frac > 1 {
			frac = 1
		}
		seek := m.prof.TrackSeek + sim.Time(frac*2*float64(m.prof.AvgSeek-m.prof.TrackSeek))
		if seek > 2*m.prof.AvgSeek {
			seek = 2 * m.prof.AvgSeek
		}
		rotation := sim.Time(m.rng.Float64() * 60 / m.prof.RPM * 1e9)
		p.Sleep(seek + rotation)
	} else {
		m.SequentialHits++
	}
	p.Sleep(sim.Time(float64(n) / m.prof.TransferBps * 1e9))
	m.headPos = startByte + uint64(n)
}

// Read implements ssd.Media.
func (m *Media) Read(p *sim.Proc, startByte uint64, n int) { m.access(p, startByte, n) }

// Write implements ssd.Media: small writes land in the drive's write-back
// cache until it fills; the media catches up at transfer rate.
func (m *Media) Write(p *sim.Proc, startByte uint64, n int) {
	if m.cacheUse+int64(n) <= m.prof.CacheBytes {
		m.cacheUse += int64(n)
		p.Sleep(m.prof.WriteCacheHit)
		// Background destage.
		m.env.Go("sata/destage", func(dp *sim.Proc) {
			m.access(dp, startByte, n)
			m.cacheUse -= int64(n)
		})
		return
	}
	m.access(p, startByte, n)
}

// Flush implements ssd.Media: drain the cache.
func (m *Media) Flush(p *sim.Proc) {
	for m.cacheUse > 0 {
		p.Sleep(sim.Millisecond)
	}
}

// BridgeConfig returns an ssd.Config whose NVMe face fronts this HDD —
// what the BMS-Engine's host adaptor sees when the card carries the SATA
// controller logic of §VI-A. Attach it with engine.AttachBackend exactly
// like a flash device; tenants still get standard NVMe namespaces.
func BridgeConfig(env *sim.Env, serial string, prof HDDProfile) (ssd.Config, *Media) {
	media := NewMedia(env, prof, serial)
	cfg := ssd.P4510(serial)
	cfg.Model = "SEAGATE EXOS 7E8 (SATA, bridged)"
	cfg.Serial = serial
	cfg.Firmware = "SN05"
	cfg.CapacityBytes = prof.CapacityBytes
	cfg.Media = media
	// Firmware windows on HDDs are shorter.
	cfg.FWCommitMin = 2 * sim.Second
	cfg.FWCommitMax = 4 * sim.Second
	return cfg, media
}

// NewBridgedDisk builds the bridged device directly.
func NewBridgedDisk(env *sim.Env, serial string, prof HDDProfile) (*ssd.SSD, *Media) {
	cfg, media := BridgeConfig(env, serial, prof)
	return ssd.New(env, cfg), media
}
