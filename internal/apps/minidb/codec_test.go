package minidb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// refDecodeNode is the decoder as it stood before PR 16 — one allocation
// per row, append-grown slices, no bounds checks — kept as the reference
// the aliasing decoder is held against. It panics inside the runtime on a
// page whose directory or row lengths run off the page; ok reports that it
// did not.
func refDecodeNode(data []byte) (node any, ok bool) {
	defer func() {
		if recover() != nil {
			node, ok = nil, false
		}
	}()
	switch data[0] {
	case nodeLeaf:
		n := int(binary.LittleEndian.Uint16(data[1:]))
		ln := &leafNode{}
		dir := 3
		off := PageSize
		for i := 0; i < n; i++ {
			key := binary.LittleEndian.Uint64(data[dir:])
			l := int(binary.LittleEndian.Uint16(data[dir+8:]))
			dir += 10
			off -= l
			row := append([]byte(nil), data[off:off+l]...) // the reference's copy of each row out of the page
			ln.entries = append(ln.entries, leafEntry{key: key, row: row})
		}
		return ln, true
	case nodeInternal:
		n := int(binary.LittleEndian.Uint16(data[1:]))
		in := &internalNode{}
		off := 3
		for i := 0; i < n; i++ {
			in.seps = append(in.seps, binary.LittleEndian.Uint64(data[off:]))
			in.children = append(in.children, pageID(binary.LittleEndian.Uint32(data[off+8:])))
			off += 12
		}
		in.children = append(in.children, pageID(binary.LittleEndian.Uint32(data[off:])))
		return in, true
	default:
		return nil, false
	}
}

// refLeafBytes is the O(n) size the tree used to recompute after every put.
func refLeafBytes(ln *leafNode) int {
	n := 0
	for _, e := range ln.entries {
		n += 10 + len(e.row)
	}
	return n
}

func sameNode(a, b any) error {
	switch a := a.(type) {
	case *leafNode:
		b, ok := b.(*leafNode)
		if !ok || len(a.entries) != len(b.entries) {
			return fmt.Errorf("leaf of %d rows against %T", len(a.entries), b)
		}
		for i := range a.entries {
			if a.entries[i].key != b.entries[i].key || !bytes.Equal(a.entries[i].row, b.entries[i].row) {
				return fmt.Errorf("row %d: key %d, %d bytes against key %d, %d bytes", i,
					a.entries[i].key, len(a.entries[i].row), b.entries[i].key, len(b.entries[i].row))
			}
		}
	case *internalNode:
		b, ok := b.(*internalNode)
		if !ok || fmt.Sprint(a.seps, a.children) != fmt.Sprint(b.seps, b.children) {
			return fmt.Errorf("internal node of %d separators differs", len(a.seps))
		}
	}
	return nil
}

// encodeNode encodes over a buffer of garbage: encode must not rely on a
// zeroed destination, since checkpoints and writebacks hand it whatever
// buffer the device write will be issued from.
func encodeNode(n any) []byte {
	return encodeNodeInto(n, bytes.Repeat([]byte{0xA5}, PageSize))
}

func encodeNodeInto(n any, page []byte) []byte {
	switch n := n.(type) {
	case *leafNode:
		n.encode(page)
	case *internalNode:
		n.encode(page)
	}
	return page
}

// checkPage is the property both the fuzzer and the seeded test assert of
// any 16 KiB page: decoding never panics; a page the decoder accepts is one
// the reference decodes to the same node; its tracked leaf size is the
// recomputed one; and it re-encodes to a page that decodes to the same
// node again and re-encodes to itself.
func checkPage(t *testing.T, page []byte) {
	t.Helper()
	pristine := bytes.Clone(page)
	n, err := decodeNode(page, nil)
	if err != nil {
		return
	}
	if !bytes.Equal(page, pristine) {
		t.Fatal("decodeNode wrote to the page")
	}
	ref, ok := refDecodeNode(page)
	if !ok {
		t.Fatal("decodeNode accepted a page the reference decoder runs off")
	}
	if err := sameNode(n, ref); err != nil {
		t.Fatalf("decodeNode against the reference: %v", err)
	}
	if ln, isLeaf := n.(*leafNode); isLeaf && ln.size != refLeafBytes(ln) {
		t.Fatalf("leaf tracks %d bytes, a recount finds %d", ln.size, refLeafBytes(ln))
	}
	again := encodeNode(n)
	if !bytes.Equal(again, encodeNodeInto(n, make([]byte, PageSize))) {
		t.Fatal("encoding over a dirty buffer differs from encoding over zeros")
	}
	n2, err := decodeNode(again, nil)
	if err != nil {
		t.Fatalf("re-encoded page does not decode: %v", err)
	}
	if err := sameNode(n, n2); err != nil {
		t.Fatalf("re-encoded page decodes differently: %v", err)
	}
	if !bytes.Equal(encodeNode(n2), again) {
		t.Fatal("encoding is not a fixed point")
	}
	// A leaf decoded into a recycled one, whose entry slice still holds
	// another page's rows, is the same leaf.
	if _, isLeaf := n.(*leafNode); isLeaf {
		stale := &leafNode{entries: []leafEntry{{key: 1, row: []byte("stale")}, {key: 2}}, size: 99}
		n3, err := decodeNode(page, stale)
		if err != nil || n3 != any(stale) {
			t.Fatalf("decoding into a recycled leaf: %T, %v", n3, err)
		}
		if err := sameNode(n, n3); err != nil || stale.size != refLeafBytes(stale) {
			t.Fatalf("decoding into a recycled leaf differs (%v), or tracks %d bytes against %d", err, stale.size, refLeafBytes(stale))
		}
	}
}

// fuzzPage spreads a fuzz input over a page the way a leaf uses one: the
// first half at the front (header and directory), the rest at the end (row
// payloads), zeros between. Any page is reachable with a PageSize input.
func fuzzPage(data []byte) []byte {
	if len(data) > PageSize {
		data = data[:PageSize]
	}
	page := make([]byte, PageSize)
	front := data[:len(data)/2]
	back := data[len(data)/2:]
	copy(page, front)
	copy(page[PageSize-len(back):], back)
	return page
}

func randomLeaf(rng *rand.Rand) *leafNode {
	ln := &leafNode{}
	key := uint64(rng.Intn(1000))
	for ln.size < maxLeafPayload {
		row := make([]byte, rng.Intn(400))
		rng.Read(row)
		if ln.size+leafDirEntry+len(row) > maxLeafPayload || rng.Intn(60) == 0 {
			break
		}
		ln.entries = append(ln.entries, leafEntry{key: key, row: row})
		ln.size += leafDirEntry + len(row)
		key += 1 + uint64(rng.Intn(5))
	}
	return ln
}

func randomInternal(rng *rand.Rand) *internalNode {
	n := rng.Intn(maxInternalFanout)
	in := &internalNode{children: []pageID{pageID(rng.Uint32())}}
	for i := 0; i < n; i++ {
		in.seps = append(in.seps, uint64(i)*7+uint64(rng.Intn(7)))
		in.children = append(in.children, pageID(rng.Uint32()))
	}
	return in
}

// TestCodecAgainstReference runs the fuzz property over well-formed nodes
// and over those nodes' pages with a few bytes of damage — in the header,
// the directory and the payload — which is where the bounds checks earn
// their keep.
func TestCodecAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	rejected := 0
	for i := 0; i < 400; i++ {
		var n any = randomLeaf(rng)
		if i%4 == 3 {
			n = randomInternal(rng)
		}
		page := encodeNode(n)
		got, err := decodeNode(page, nil)
		if err != nil {
			t.Fatalf("node %d: own encoding rejected: %v", i, err)
		}
		if err := sameNode(n, got); err != nil {
			t.Fatalf("node %d: round trip: %v", i, err)
		}
		checkPage(t, page)
		for j := 0; j < 8; j++ {
			bad := bytes.Clone(page)
			for k := 0; k <= rng.Intn(3); k++ {
				at := rng.Intn(64)
				if rng.Intn(3) == 0 {
					at = rng.Intn(PageSize)
				}
				bad[at] = byte(rng.Intn(256))
			}
			if _, err := decodeNode(bad, nil); err != nil {
				rejected++
			}
			checkPage(t, bad)
		}
	}
	if rejected == 0 {
		t.Fatal("no damaged page was rejected: the damage misses the bounds checks")
	}
}

// TestDecodeRejectsOverruns pins the three bounds by hand: a row count
// whose directory leaves the page, a row length that runs into the
// directory, and an internal node too wide for a page all come back as
// errors naming a corrupt page, not as runtime panics.
func TestDecodeRejectsOverruns(t *testing.T) {
	leaf := func(n int, lens ...int) []byte {
		page := make([]byte, PageSize)
		page[0] = nodeLeaf
		binary.LittleEndian.PutUint16(page[1:], uint16(n))
		for i, l := range lens {
			binary.LittleEndian.PutUint16(page[3+10*i+8:], uint16(l))
		}
		return page
	}
	internal := make([]byte, PageSize)
	internal[0] = nodeInternal
	binary.LittleEndian.PutUint16(internal[1:], 1365) // 3 + 12*1365 + 4 = PageSize + 3
	for name, page := range map[string][]byte{
		"directory past the page":     leaf(1639),
		"row into the directory":      leaf(2, 8000, 8400),
		"row longer than the page":    leaf(1, 65535),
		"internal node past the page": internal,
		"unknown kind":                make([]byte, PageSize),
		"short page":                  make([]byte, 100),
	} {
		if _, err := decodeNode(page, nil); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	// The largest shapes that do fit still decode.
	if _, err := decodeNode(leaf(1638), nil); err != nil {
		t.Errorf("1638 empty rows: %v", err)
	}
	if _, err := decodeNode(leaf(2, 8000, 8361), nil); err != nil {
		t.Errorf("rows meeting the directory exactly: %v", err)
	}
	binary.LittleEndian.PutUint16(internal[1:], 1364)
	if _, err := decodeNode(internal, nil); err != nil {
		t.Errorf("1364 separators: %v", err)
	}
}

// FuzzLeafCodec hands the fuzzer checkPage; testdata/fuzz holds the seed
// corpus, which `go test` replays as a regression test.
func FuzzLeafCodec(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPage(t, fuzzPage(data))
	})
}
