package ycsb

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestKeyMatchesSprintf: key appends what fmt.Sprintf("user%012d", i) spells,
// to an empty buffer and after bytes already there.
func TestKeyMatchesSprintf(t *testing.T) {
	buf := []byte("prefix")
	check := func(i int) {
		t.Helper()
		want := fmt.Sprintf("user%012d", i)
		if g := key(nil, i); string(g) != want {
			t.Fatalf("key(nil, %d) = %q, want %q", i, g, want)
		}
		if g := key(buf[:6], i); !bytes.Equal(g, []byte("prefix"+want)) {
			t.Fatalf("key(%q, %d) = %q, want %q", "prefix", i, g, "prefix"+want)
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
