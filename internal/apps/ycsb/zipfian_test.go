package ycsb

import (
	"testing"

	"bmstore/internal/sim"
)

func TestZipfianBoundsAndSkew(t *testing.T) {
	env := sim.NewEnv(1)
	rng := env.Rand("zipf")
	z := zipfian(1000).withRand(rng)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		k := z.Next()
		if k < 0 || k >= 1000 {
			t.Fatalf("zipfian out of bounds: %d", k)
		}
		counts[k]++
	}
	// Head keys dominate: key 0 should beat the median key by a lot.
	if counts[0] < 20*counts[500]+1 {
		t.Fatalf("no skew: head %d vs mid %d", counts[0], counts[500])
	}
}
