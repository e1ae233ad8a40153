package logring

import (
	"bytes"
	"testing"
)

// FuzzFrame holds the frame codec to three properties: ReadFrame and
// FrameLen take any bytes without panicking, and whatever ReadFrame accepts
// re-frames to the same bytes; a framed doc of at least one byte reads back
// with its spare word; and flipping any one byte of the header or the doc
// makes ReadFrame reject the frame — except in the spare word, which the
// codec does not check and which therefore comes back changed.
func FuzzFrame(f *testing.F) {
	f.Add([]byte(`{"Epoch":3}`), uint32(0xD1DB0001), uint32(0), uint16(5), byte(1), []byte{})
	f.Add([]byte(`{"Super":{},"Pages":[1,2]}`), uint32(0xD1DB00DD), uint32(0xCAFEF00D), uint16(13), byte(0x80), []byte{0xDD, 0, 0xDB, 0xD1, 4, 0, 0, 0})
	f.Add([]byte("x"), uint32(0xB3570125), uint32(7), uint16(4), byte(0xFF), []byte{0x25, 0x01, 0x57, 0xB3, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{}, uint32(0), uint32(0), uint16(0), byte(0), make([]byte, 16))
	f.Fuzz(func(t *testing.T, doc []byte, magic, spare uint32, at uint16, flip byte, raw []byte) {
		if got, gotSpare, ok := ReadFrame(raw, magic); ok {
			n := FrameLen(raw, magic)
			again := make([]byte, n)
			if PutFrame(again, magic, gotSpare, got) != n || !bytes.Equal(again, raw[:n]) {
				t.Fatalf("accepted frame %x does not re-frame to itself", raw[:n])
			}
		}

		buf := make([]byte, FrameHeader+len(doc)+8)
		n := PutFrame(buf, magic, spare, doc)
		if n != FrameHeader+len(doc) {
			t.Fatalf("PutFrame returned %d for a %d-byte doc", n, len(doc))
		}
		got, gotSpare, ok := ReadFrame(buf[:n], magic)
		if len(doc) == 0 {
			if ok || FrameLen(buf, magic) != 0 {
				t.Fatal("a frame with an empty doc was accepted")
			}
			return
		}
		if !ok || !bytes.Equal(got, doc) || gotSpare != spare || FrameLen(buf, magic) != n {
			t.Fatalf("framed doc %q read back as %q, spare %#x (%v), want spare %#x", doc, got, gotSpare, ok, spare)
		}

		if flip == 0 {
			flip = 1
		}
		pos := int(at) % n
		buf[pos] ^= flip
		got, gotSpare, ok = ReadFrame(buf[:n], magic)
		if pos >= 12 && pos < FrameHeader {
			if !ok || gotSpare == spare || !bytes.Equal(got, doc) {
				t.Fatalf("flip at spare byte %d: doc %q, spare %#x (%v)", pos, got, gotSpare, ok)
			}
			return
		}
		if ok {
			t.Fatalf("flip of %#x at byte %d of a %d-byte frame was accepted", flip, pos, n)
		}
	})
}
