package ycsb

import (
	"math"
	"testing"

	"bmstore/internal/sim"
)

func TestZipfianBoundsAndSkew(t *testing.T) {
	env := sim.NewEnv(1)
	z := zipfian(1000)
	z.rng = env.Rand("zipf")
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

// TestZipfianSecondKeyBoundIsTheFormula: Next, which holds 1 + 0.5^theta as a
// constant, draws exactly the keys the per-draw formula does, 10^5 draws from
// one seed each for n of 2, 1000 and 5000.
func TestZipfianSecondKeyBoundIsTheFormula(t *testing.T) {
	const theta = 0.99
	for _, n := range []int{2, 1000, 5000} {
		var zr, rng sim.Rand
		sim.InitRand(&zr, int64(n))
		sim.InitRand(&rng, int64(n))
		z, ref := zipfian(n), zipfian(n)
		z.rng = &zr
		for i := 0; i < 100000; i++ {
			var want int
			u := rng.Float64()
			uz := u * ref.zetan
			switch {
			case uz < 1:
				want = 0
			case uz < 1+math.Pow(0.5, theta):
				want = 1
			default:
				want = min(int(float64(n)*math.Pow(ref.eta*u-ref.eta+1, ref.alpha)), n-1)
			}
			if got := z.Next(); got != want {
				t.Fatalf("n %d, draw %d: Next %d, the formula %d", n, i, got, want)
			}
		}
	}
}
