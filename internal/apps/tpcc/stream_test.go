package tpcc

import (
	"bytes"
	"math/rand"
	"testing"
)

// refRowData is the generator as it stood before PR 16: one rng.Intn per
// byte.
func refRowData(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('A' + rng.Intn(26))
	}
	return b
}

// TestRowDataDrawsTheIntnStream: rowData inlines math/rand's Intn; over
// 10 k rows from several seeds it must produce the reference's bytes and
// leave the generator where the reference leaves it, or every key choice
// after a write would move. A toolchain whose math/rand draws Intn
// differently fails here, loudly, rather than in a golden.
func TestRowDataDrawsTheIntnStream(t *testing.T) {
	for _, seed := range []int64{1, 777, 1234, 1 << 40, -7} {
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 10000; i++ {
			n := 1 + i%50
			if g, w := rowData(got, n), refRowData(want, n); !bytes.Equal(g, w) {
				t.Fatalf("seed %d, row %d: %q, want %q", seed, i, g, w)
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d, row %d: the next draw is %d, want %d", seed, i, g, w)
			}
		}
	}
}
