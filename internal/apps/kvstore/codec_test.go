package kvstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
)

// refDecodeRecords is the record decoder as it stood before PR 16 — a
// fresh copy of every key and value — kept as the reference the aliasing
// decoder is held against.
func refDecodeRecords(b []byte) []walRecord {
	var out []walRecord
	off := 0
	for off+walRecordHeader <= len(b) {
		crc := binary.LittleEndian.Uint32(b[off:])
		lsn := binary.LittleEndian.Uint64(b[off+4:])
		klen := binary.LittleEndian.Uint32(b[off+12:])
		vlen := binary.LittleEndian.Uint32(b[off+16:])
		tomb := vlen == 0xFFFFFFFF
		if tomb {
			vlen = 0
		}
		if klen == 0 || klen > 1<<20 || vlen > 1<<24 ||
			off+walRecordHeader+int(klen)+int(vlen) > len(b) {
			break
		}
		end := off + walRecordHeader + int(klen) + int(vlen)
		if crc32.ChecksumIEEE(b[off+4:end]) != crc {
			break
		}
		key := append([]byte(nil), b[off+walRecordHeader:off+walRecordHeader+int(klen)]...) // the reference's copy out of the stream
		var val []byte
		if !tomb {
			val = append([]byte(nil), b[off+walRecordHeader+int(klen):end]...) // likewise
		}
		out = append(out, walRecord{lsn: lsn, key: key, value: val})
		off = end
	}
	return out
}

// decodeRecords parses a batch byte stream up to its first invalid record,
// record by record through nextRecord. The records alias b.
func decodeRecords(b []byte) []walRecord {
	var out []walRecord
	for off := 0; ; {
		rec, end, ok := nextRecord(b, off)
		if !ok {
			return out
		}
		out = append(out, rec)
		off = end
	}
}

// sameRecords compares field by field, nil-ness of the value included: a
// nil value is a tombstone to everything above the decoder.
func sameRecords(t *testing.T, what string, got, want []walRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.lsn != w.lsn || !bytes.Equal(g.key, w.key) || !bytes.Equal(g.value, w.value) || (g.value == nil) != (w.value == nil) {
			t.Fatalf("%s: record %d is lsn %d key %q value %q (nil %v), want lsn %d key %q value %q (nil %v)", what, i,
				g.lsn, g.key, g.value, g.value == nil, w.lsn, w.key, w.value, w.value == nil)
		}
	}
}

// checkStream is the property both the fuzzer and the seeded test assert of
// any byte stream: decoding never panics or writes to the stream, agrees
// with the reference decoder record for record, agrees with decodeBlock,
// and what it decoded re-encodes to a stream that decodes to the same
// records.
func checkStream(t *testing.T, b []byte) {
	t.Helper()
	pristine := bytes.Clone(b)
	recs := decodeRecords(b)
	if !bytes.Equal(b, pristine) {
		t.Fatal("decodeRecords wrote to the stream")
	}
	sameRecords(t, "against the reference", recs, refDecodeRecords(b))

	kvs := decodeBlock(b)
	if len(kvs) != len(recs) {
		t.Fatalf("decodeBlock found %d records, decodeRecords %d", len(kvs), len(recs))
	}
	for i, kv := range kvs {
		if !bytes.Equal(kv.Key, recs[i].key) || !bytes.Equal(kv.Value, recs[i].value) || (kv.Value == nil) != (recs[i].value == nil) {
			t.Fatalf("decodeBlock record %d differs from decodeRecords", i)
		}
	}

	again := bytes.Repeat([]byte{0xA5}, 7) // appendRecord must not care what precedes it
	for _, r := range recs {
		if n := len(again); len(appendRecord(again[:n:n], r.lsn, r.key, r.value)) != n+recordLen(r.key, r.value) {
			t.Fatal("recordLen disagrees with appendRecord")
		}
		again = appendRecord(again, r.lsn, r.key, r.value)
	}
	again = append(again, 0, 0, 0) // block padding ends a stream
	sameRecords(t, "after re-encoding", decodeRecords(again[7:]), recs)
}

func randomStream(rng *rand.Rand) []byte {
	var b []byte
	for i := rng.Intn(12); i > 0; i-- {
		key := make([]byte, 1+rng.Intn(24))
		rng.Read(key)
		var value []byte
		switch rng.Intn(5) {
		case 0: // tombstone
		case 1:
			value = []byte{} // stored with length 0, read back as a tombstone
		default:
			value = make([]byte, 1+rng.Intn(500))
			rng.Read(value)
		}
		b = appendRecord(b, rng.Uint64(), key, value)
	}
	return append(b, make([]byte, rng.Intn(64))...)
}

// TestRecordCodecAgainstReference runs the fuzz property over well-formed
// streams, over truncations of them (a torn batch), and over streams with
// a damaged byte (stale ring contents): everything up to the damage still
// decodes, nothing after it does.
func TestRecordCodecAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var decoded int
	for i := 0; i < 300; i++ {
		b := randomStream(rng)
		decoded += len(decodeRecords(b))
		checkStream(t, b)
		checkStream(t, b[:rng.Intn(len(b)+1)])
		if len(b) > 0 {
			bad := bytes.Clone(b)
			bad[rng.Intn(len(bad))] ^= 1 << rng.Intn(8)
			checkStream(t, bad)
		}
	}
	if decoded < 1000 {
		t.Fatalf("300 streams held %d records: the generator is broken", decoded)
	}
}

// FuzzDecodeRecords hands the fuzzer checkStream; testdata/fuzz holds the
// seed corpus, which `go test` replays as a regression test.
func FuzzDecodeRecords(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("longer streams only repeat shorter ones")
		}
		checkStream(t, data)
	})
}
