// Package chaos is the testbed's chaos-campaign engine: seeded randomized
// fault schedules over the internal/fault rule space, a write-then-verify
// payload oracle that proves no acknowledged write is ever lost, torn,
// misdirected or silently corrupted, and the invariant checker that turns a
// finished run's evidence (oracle violations, driver CID accounting,
// injection counts, the liveness watchdog's diagnosis) into findings.
//
// Everything here is deterministic: schedules come from a seeded PRNG,
// payloads are derivable pure functions of (seed, LBA, generation), and the
// checker is plain arithmetic — so a failing campaign seed replays exactly,
// byte for byte. The package builds no rig: it reads the fault rule space
// (internal/fault) and the driver's CID accounting as the driver keeps it
// (host.IOCounters); the rig-facing glue (running schedules against
// testbeds) lives in internal/experiments, and the workload that feeds the
// oracle lives in internal/fio.
package chaos

import "encoding/binary"

// TagSize is the per-block header: magic, campaign seed, LBA, generation.
// Everything after it is a keystream derived from those same values, so one
// flipped byte anywhere in the block is detectable and attributable.
const TagSize = 32

var tagMagic = [8]byte{'B', 'M', 'C', 'H', 'A', 'O', 'S', '1'}

// mix is the splitmix64 finalizer: a cheap, well-distributed pure function
// used both to derive keystreams and to space them apart.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// streamBase seeds the keystream for one (seed, lba, gen) triple.
func streamBase(seed int64, lba, gen uint64) uint64 {
	return mix(mix(uint64(seed)) ^ mix(lba) ^ gen)
}

// FillBlock writes the derivable payload for (seed, lba, gen) into buf —
// one whole block. The payload is header + keystream; no randomness, so the
// verifier can resynthesize the exact bytes any block should hold.
func FillBlock(buf []byte, seed int64, lba, gen uint64) {
	copy(buf, tagMagic[:])
	binary.LittleEndian.PutUint64(buf[8:], uint64(seed))
	binary.LittleEndian.PutUint64(buf[16:], lba)
	binary.LittleEndian.PutUint64(buf[24:], gen)
	base := streamBase(seed, lba, gen)
	i := TagSize
	var w uint64
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], mix(base+uint64(i)))
	}
	if i < len(buf) {
		w = mix(base + uint64(i))
		for j := 0; i < len(buf); i, j = i+1, j+1 {
			buf[i] = byte(w >> (8 * j))
		}
	}
}

// DecodeTag parses a block's header. ok is false when the magic is absent —
// the block holds zeros, foreign data, or a damaged header.
func DecodeTag(blk []byte) (seed int64, lba, gen uint64, ok bool) {
	if len(blk) < TagSize {
		return 0, 0, 0, false
	}
	for i, m := range tagMagic {
		if blk[i] != m {
			return 0, 0, 0, false
		}
	}
	return int64(binary.LittleEndian.Uint64(blk[8:])),
		binary.LittleEndian.Uint64(blk[16:]),
		binary.LittleEndian.Uint64(blk[24:]),
		true
}

// allZero reports whether the block is entirely zero — the state of
// never-written media.
func allZero(blk []byte) bool {
	for _, b := range blk {
		if b != 0 {
			return false
		}
	}
	return true
}
