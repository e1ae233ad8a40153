package sim

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// drawBoth makes one draw of the given kind from both generators and reports
// whether they agree. arg shapes the draw (bounds, lengths).
func drawBoth(t *testing.T, got, want *rand.Rand, kind, arg int) {
	t.Helper()
	var g, w any
	switch kind % 6 {
	case 0:
		g, w = got.Int63(), want.Int63()
	case 1:
		g, w = got.Uint64(), want.Uint64()
	case 2:
		g, w = got.Float64(), want.Float64()
	case 3:
		g, w = got.Intn(arg+1), want.Intn(arg+1)
	case 4:
		n := int64(arg+1) << 40 // beyond int32: Int63n's rejection loop
		g, w = got.Int63n(n), want.Int63n(n)
	case 5:
		pg, pw := got.Perm(arg%9), want.Perm(arg%9)
		if !slices.Equal(pg, pw) {
			t.Fatalf("Perm(%d) = %v, math/rand draws %v", arg%9, pg, pw)
		}
		return
	}
	if g != w {
		t.Fatalf("draw kind %d arg %d = %v, math/rand draws %v", kind%6, arg, g, w)
	}
}

// TestRandMatchesMathRand: the stream behind Env.Rand is math/rand's for the
// same seed, whatever mix of draws consumes it — through the draws that seed
// their own words, the one that seeds the rest, the register's wrap-around
// (607 draws) and a re-Seed in mid-stream. Every golden in the repo depends
// on this.
func TestRandMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, seedMod, -seedMod, 1 << 31, 89482311, 1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64}
	pick := rand.New(rand.NewSource(19))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		got, want := newRand(seed), rand.New(rand.NewSource(seed))
		mix := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
		for i := 0; i < 3000; i++ {
			if i == 1700 {
				// Re-seed mid-stream: stale words must not leak into the
				// new stream's on-demand seeding.
				got.Seed(seed + 7)
				want.Seed(seed + 7)
			}
			drawBoth(t, got, want, mix.Intn(6), mix.Intn(1000))
		}
	}
}

// TestEnvRandStreams: a stream is a function of the environment seed and the
// name (FNV-1a of the name XOR the seed, as it has always been), and
// distinct names give distinct streams.
func TestEnvRandStreams(t *testing.T) {
	env := NewEnv(42)
	const name = "fio/round3/seqr256/j15/w255"
	// FNV-1a 64 of name, computed by hand here so the test does not share
	// the loop under test.
	h := uint64(0xcbf29ce484222325)
	for _, c := range []byte(name) {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	want := rand.New(rand.NewSource(42 ^ int64(h)))
	got, other := env.Rand(name), env.Rand(name+"x")
	same := true
	for i := 0; i < 100; i++ {
		w := want.Int63()
		if g := got.Int63(); g != w {
			t.Fatalf("draw %d of Rand(%q) = %d, want %d", i, name, g, w)
		}
		same = same && other.Int63() == w
	}
	if same {
		t.Fatal("two names share a stream")
	}
}

// FuzzRandStream: the input is a seed and a draw program — one byte picks
// the kind of draw, the next its argument; kind 6 re-seeds, kind 7 draws a
// burst, which is what carries a short input across the on-demand seeding's
// hand-over and the register's wrap-around — run differentially against
// math/rand.
func FuzzRandStream(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip("longer programs only repeat shorter ones")
		}
		var sb [8]byte
		data = data[copy(sb[:], data):]
		seed := int64(binary.LittleEndian.Uint64(sb[:]))
		got, want := newRand(seed), rand.New(rand.NewSource(seed))
		for len(data) >= 2 {
			kind, arg := int(data[0]%8), int(data[1])
			data = data[2:]
			switch kind {
			case 6:
				seed = seed*31 + int64(arg)
				got.Seed(seed)
				want.Seed(seed)
			case 7:
				for i := 0; i < 3*arg; i++ {
					drawBoth(t, got, want, i, arg)
				}
			default:
				drawBoth(t, got, want, kind, arg)
			}
		}
		// Whatever the program drew, the streams are still in step.
		drawBoth(t, got, want, 1, 0)
	})
}

var randSink int64

// BenchmarkRandDraw is one steady-state Int63 through rand.Rand over the
// in-package source; BenchmarkRandDrawMathRand is its math/rand twin. The
// application generators draw hundreds of numbers per block I/O, so the two
// must stay within 15 % of each other.
func BenchmarkRandDraw(b *testing.B) { benchDraw(b, newRand(1)) }

func BenchmarkRandDrawMathRand(b *testing.B) { benchDraw(b, rand.New(rand.NewSource(1))) }

func benchDraw(b *testing.B, r *rand.Rand) {
	for i := 0; i < 1000; i++ {
		randSink += r.Int63()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		randSink += r.Int63()
	}
}

// BenchmarkEnvRand is what a fio worker pays for its stream: creation and
// the three draws a short-lived worker makes. Two allocations, the rand.Rand
// and its source (make bench-gate). BenchmarkEnvRandMathRand is the
// math/rand twin, which seeds all 607 words up front.
func BenchmarkEnvRand(b *testing.B) {
	env := NewEnv(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := env.Rand("fio/round1/seqr256/j15/w255")
		randSink += r.Int63() + r.Int63() + r.Int63()
	}
}

func BenchmarkEnvRandMathRand(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		randSink += r.Int63() + r.Int63() + r.Int63()
	}
}
