package sim

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// letters64 holds the alphabets Text draws from in the tests: its first k
// bytes for k in 2..64, power-of-two lengths included.
const letters64 = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+/"

// drawBoth makes one draw of the given kind from both generators and reports
// whether they agree. arg shapes the draw (bounds, lengths).
func drawBoth(t *testing.T, got *Rand, want *rand.Rand, kind, arg int) {
	t.Helper()
	var g, w any
	switch kind % 7 {
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
	case 6:
		textBoth(t, got, want, letters64[:2+arg%63], arg%2001)
		return
	}
	if g != w {
		t.Fatalf("draw kind %d arg %d = %v, math/rand draws %v", kind%7, arg, g, w)
	}
}

// textBoth draws n letters of alphabet through Text and through math/rand's
// Intn, then one Int63 from each: the letters and the position they leave
// the stream at must both agree.
func textBoth(t *testing.T, got *Rand, want *rand.Rand, alphabet string, n int) {
	t.Helper()
	buf := make([]byte, n)
	got.Text(buf, alphabet)
	for i, c := range buf {
		if w := alphabet[want.Intn(len(alphabet))]; c != w {
			t.Fatalf("Text(%d letters of %q): letter %d = %q, math/rand draws %q", n, alphabet, i, c, w)
		}
	}
	if g, w := got.Int63(), want.Int63(); g != w {
		t.Fatalf("after Text(%d letters of %q) the next draw is %d, math/rand draws %d", n, alphabet, g, w)
	}
}

// nameSeed is the seed Env.Rand(name) hands math/rand in an environment
// seeded env: FNV-1a 64 of the name, computed here so the tests do not
// share the loop under test, XOR the environment's seed.
func nameSeed(env int64, name string) int64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range []byte(name) {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return env ^ int64(h)
}

// TestRandMatchesMathRand: the stream behind Env.Rand is math/rand's for the
// same seed, whatever mix of draws consumes it — through the draws that
// compute their own words, the one that builds the register, the register's
// wrap-around (607 draws), a re-Seed in mid-stream and a re-initialisation
// in place under another name, which keeps the register — and Text started
// after every draw count across the hand-over, on a fresh stream and on one
// initialised in place over a register. Every golden in the repo depends on
// this.
func TestRandMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, seedMod, -seedMod, 1 << 31, 89482311, 1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64}
	pick := rand.New(rand.NewSource(19))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		got, want := newRand(seed), rand.New(rand.NewSource(seed))
		mix := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
		env := NewEnv(seed)
		for i := 0; i < 3000; i++ {
			if i == 1700 {
				// Re-seed mid-stream: stale words must not leak into the
				// new stream's lazy draws or its rebuilt register.
				got.Seed(seed + 7)
				want.Seed(seed + 7)
			}
			if i == 2400 {
				// Re-initialise in place, as a fio worker's stream is
				// at each phase: the register is reused and nothing of
				// the old stream may show.
				name := "fio/round2/w" + strconv.Itoa(i)
				env.InitRand(got, name)
				want = rand.New(rand.NewSource(nameSeed(seed, name)))
			}
			drawBoth(t, got, want, mix.Intn(7), mix.Intn(1000))
		}
		for skip := 0; skip <= lazyDraws+1; skip++ {
			fresh, name := newRand(seed), "fio/w"+strconv.Itoa(skip)
			textAfter(t, fresh, rand.New(rand.NewSource(seed)), skip, mix.Intn(300))
			env.InitRand(got, name) // got holds a register by now
			textAfter(t, got, rand.New(rand.NewSource(nameSeed(seed, name))), skip, mix.Intn(300))
		}
	}
}

// textAfter makes skip Int63 draws from both generators, then compares n
// letters of Text with math/rand's Intn and the draw after them.
func textAfter(t *testing.T, got *Rand, want *rand.Rand, skip, n int) {
	t.Helper()
	for i := 0; i < skip; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("draw %d = %d, math/rand draws %d", i, g, w)
		}
	}
	textBoth(t, got, want, letters64[:26], n)
}

// TestEnvRandStreams: a stream is a function of the environment seed and the
// name (FNV-1a of the name XOR the seed, as it has always been), and
// distinct names give distinct streams.
func TestEnvRandStreams(t *testing.T) {
	env := NewEnv(42)
	const name = "fio/round3/seqr256/j15/w255"
	want := rand.New(rand.NewSource(nameSeed(42, name)))
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
// the kind of draw, the next its argument; kind 6 re-seeds, or with the kind
// byte's high part set re-initialises the stream in place under a name
// (Env.InitRand, keeping its register), kind 7 draws a burst, which is what
// carries a short input across the lazy draws' hand-over and the register's
// wrap-around, kind 8 draws Text (the kind byte's high part widens its
// argument, so lengths reach 2 000) — run differentially against math/rand.
// The seeds added here start Text after every draw count from 0 to
// lazyDraws+1, on a fresh stream and after an in-place re-initialisation
// over a register.
func FuzzRandStream(f *testing.F) {
	f.Add([]byte{})
	for skip := 0; skip <= lazyDraws+1; skip++ {
		prog := []byte{byte(skip), 0, 0, 0, 0, 0, 0, 0}
		for i := 0; i < skip; i++ {
			prog = append(prog, 0, 0)
		}
		f.Add(append(prog, 8, 40))
		// A burst of 60 draws builds the register, kind 15 re-initialises
		// over it, and the same skip and Text follow.
		prog = append([]byte{byte(skip), 0, 0, 0, 0, 0, 0, 0, 7, 20, 15, byte(skip)}, prog[8:]...)
		f.Add(append(prog, 8, 40))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip("longer programs only repeat shorter ones")
		}
		var sb [8]byte
		data = data[copy(sb[:], data):]
		seed := int64(binary.LittleEndian.Uint64(sb[:]))
		got, want := newRand(seed), rand.New(rand.NewSource(seed))
		for len(data) >= 2 {
			kind, arg := int(data[0]%9), int(data[1])
			wide := int(data[0]/9)<<8 | arg
			data = data[2:]
			switch kind {
			case 6:
				seed = seed*31 + int64(arg)
				if wide>>8 == 0 {
					got.Seed(seed)
					want.Seed(seed)
					break
				}
				name := "w" + strconv.Itoa(arg)
				NewEnv(seed).InitRand(got, name)
				want = rand.New(rand.NewSource(nameSeed(seed, name)))
			case 7:
				for i := 0; i < 3*arg; i++ {
					drawBoth(t, got, want, i, arg)
				}
			case 8:
				drawBoth(t, got, want, 6, wide)
			default:
				drawBoth(t, got, want, kind, arg)
			}
		}
		// Whatever the program drew, the streams are still in step.
		drawBoth(t, got, want, 1, 0)
	})
}

// TestTextMatchesIntn: Text starting anywhere in a fresh stream's first
// draws — inside the lazy draws, at the one that builds the register, and
// either side of the register's wrap — gives Intn's letters and leaves the
// stream where Intn leaves it, for alphabets that take the rejection path,
// the power-of-two mask, and a single letter.
func TestTextMatchesIntn(t *testing.T) {
	newRand(1).Text(nil, "") // draws nothing, so it cannot fail as Intn(0) would
	alphabets := []string{"0123456789", letters64[:26], letters64[:2], letters64, letters64[:63], "x"}
	skips := []int{0, 1, 5, lazyDraws - 1, lazyDraws, lazyDraws + 1, rngTap - 1, rngLen - rngTap, rngLen - 1, rngLen, rngLen + 3}
	for _, seed := range []int64{0, 1, 4242, 777, -7, 1 << 40} {
		for _, alphabet := range alphabets {
			for _, skip := range skips {
				for _, n := range []int{0, 1, 40, 700, 2000} {
					got, want := newRand(seed), rand.New(rand.NewSource(seed))
					for i := 0; i < skip; i++ {
						got.Int63()
						want.Int63()
					}
					textBoth(t, got, want, alphabet, n)
				}
			}
		}
	}
}

// TestTextAllocatesNothing: the load generators call Text once per value
// or row.
func TestTextAllocatesNothing(t *testing.T) {
	r := newRand(1)
	buf := make([]byte, 400)
	if a := testing.AllocsPerRun(100, func() { r.Text(buf, letters64[:26]) }); a != 0 {
		t.Fatalf("Text allocates %v times per call", a)
	}
}

// TestRandAllocatesOnlyItsRegister: a stream held in place allocates
// nothing to be initialised or over its first lazyDraws draws; the draw
// after them allocates the register, once; a re-Seed or a re-initialisation
// in place reuses it.
func TestRandAllocatesOnlyItsRegister(t *testing.T) {
	env := NewEnv(1)
	w := new(struct {
		id  int
		rng Rand // in place, as fio's worker holds it
	})
	const name = "fio/round1/seqr256/j15/w255"
	if a := testing.AllocsPerRun(100, func() {
		env.InitRand(&w.rng, name)
		for i := 0; i < lazyDraws; i++ {
			randSink += w.rng.Int63()
		}
	}); a != 0 || w.rng.src.vec != nil {
		t.Fatalf("init and %d draws: %v allocations, register %p; want none", lazyDraws, a, w.rng.src.vec)
	}
	if a := testing.AllocsPerRun(100, func() {
		w.rng = Rand{}
		env.InitRand(&w.rng, name)
		for i := 0; i <= lazyDraws; i++ {
			randSink += w.rng.Int63()
		}
	}); a != 1 || w.rng.src.vec == nil {
		t.Fatalf("init and %d draws: %v allocations, register %p; want the register, once", lazyDraws+1, a, w.rng.src.vec)
	}
	if a := testing.AllocsPerRun(100, func() {
		w.rng.Seed(7)
		for i := 0; i < 2*lazyDraws; i++ {
			randSink += w.rng.Int63()
		}
		env.InitRand(&w.rng, name)
		for i := 0; i < 2*lazyDraws; i++ {
			randSink += w.rng.Int63()
		}
	}); a != 0 {
		t.Fatalf("re-Seed and re-init over a register: %v allocations, want none", a)
	}
}

var randSink int64

// BenchmarkRandDraw is one steady-state Int63 through rand.Rand over the
// in-package source; BenchmarkRandDrawMathRand is its math/rand twin. The
// application generators draw hundreds of numbers per block I/O, so the two
// must stay within 15 % of each other.
func BenchmarkRandDraw(b *testing.B) { benchDraw(b, &newRand(1).Rand) }

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

var textSink [400]byte

// BenchmarkRandText is one YCSB value, 400 letters of 26, through Text;
// BenchmarkRandTextIntn draws the same letters one Intn at a time.
func BenchmarkRandText(b *testing.B) {
	r := newRand(1)
	for i := 0; i < b.N; i++ {
		r.Text(textSink[:], letters64[:26])
	}
}

func BenchmarkRandTextIntn(b *testing.B) {
	r := newRand(1)
	for i := 0; i < b.N; i++ {
		for j := range textSink {
			textSink[j] = letters64[r.Intn(26)]
		}
	}
}

// BenchmarkEnvRand is a named stream made on the heap and the three draws
// a short-lived fio worker makes: one allocation, a 96-byte Rand and no
// register (make bench-gate pins allocs/op and B/op; a worker holds its
// stream in place and pays none). BenchmarkEnvRandMathRand is the
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

// newRand returns a fresh stream for seed, as a caller that owns no value to
// hold it in would make one.
func newRand(seed int64) *Rand {
	r := new(Rand)
	InitRand(r, seed)
	return r
}
