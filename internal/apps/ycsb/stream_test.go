package ycsb

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// refValue and refKey are the generators as they stood before PR 16: one
// rng.Intn per letter, one fmt.Sprintf per key.
func refValue(rng *rand.Rand, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte('a' + rng.Intn(26))
	}
	return v
}

func refKey(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) }

// TestValueDrawsTheIntnStream: value inlines math/rand's Intn; over 10 k
// values from several seeds it must produce the reference's bytes and leave
// the generator where the reference leaves it, or every key choice after an
// update would move. A toolchain whose math/rand draws Intn differently
// fails here, loudly, rather than in a golden.
func TestValueDrawsTheIntnStream(t *testing.T) {
	for _, seed := range []int64{1, 4242, 1 << 40, -7} {
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 10000; i++ {
			n := 1 + i%50
			if g, w := value(got, n), refValue(want, n); !bytes.Equal(g, w) {
				t.Fatalf("seed %d, value %d: %q, want %q", seed, i, g, w)
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d, value %d: the next draw is %d, want %d", seed, i, g, w)
			}
		}
	}
}

func TestKeyMatchesSprintf(t *testing.T) {
	check := func(i int) {
		t.Helper()
		if g, w := key(i), refKey(i); !bytes.Equal(g, w) {
			t.Fatalf("key(%d) = %q, want %q", i, g, w)
		}
	}
	for i := 0; i < 10000; i++ {
		check(i)
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 10000; i++ {
		check(int(rng.Int63() >> uint(rng.Intn(63))))
	}
	// Either side of the pad width, the widest int, and a negative one.
	for _, i := range []int{99999999999, 999999999999, 1000000000000, 1<<63 - 1, -5} {
		check(i)
	}
}
