package logring

import (
	"encoding/binary"
	"hash/crc32"
)

// FrameHeader is the size of a frame's header: magic u32 | doc length u32 |
// crc32(doc) u32 | a spare word the caller fills. The doc follows it.
const FrameHeader = 16

// PutFrame frames doc under magic at the front of buf, with spare in the
// header's fourth word, and returns the frame's length. buf must have room
// for it.
func PutFrame(buf []byte, magic, spare uint32, doc []byte) int {
	binary.LittleEndian.PutUint32(buf, magic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(doc)))
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(doc))
	binary.LittleEndian.PutUint32(buf[12:], spare)
	return FrameHeader + copy(buf[FrameHeader:], doc)
}

// FrameLen returns the length of the frame whose header b begins with — the
// header's and its doc's — or 0 if b begins with no header under magic for a
// doc of at least one byte. It reads the header alone.
func FrameLen(b []byte, magic uint32) int {
	if len(b) < FrameHeader || binary.LittleEndian.Uint32(b) != magic {
		return 0
	}
	n := int(binary.LittleEndian.Uint32(b[4:]))
	if n == 0 {
		return 0
	}
	return FrameHeader + n
}

// ReadFrame returns the doc and the spare word of the frame under magic at
// the front of b; ok is false unless b holds the whole frame and its doc
// matches the CRC. doc is a sub-slice of b.
func ReadFrame(b []byte, magic uint32) (doc []byte, spare uint32, ok bool) {
	n := FrameLen(b, magic)
	if n == 0 || n > len(b) {
		return nil, 0, false
	}
	doc = b[FrameHeader:n]
	if crc32.ChecksumIEEE(doc) != binary.LittleEndian.Uint32(b[8:]) {
		return nil, 0, false
	}
	return doc, binary.LittleEndian.Uint32(b[12:]), true
}
