package sim

import (
	"math"
	"math/bits"
	"math/rand"
)

// Rand returns a deterministic pseudo-random stream derived from the
// environment seed and the given name. Distinct names yield independent
// streams, so adding a new random consumer never perturbs existing ones —
// the property that keeps experiments reproducible as the model grows.
//
// The stream is math/rand's for the same seed, bit for bit — every golden
// and pinned digest in the repo was drawn from it, so that identity is a
// compatibility promise (TestRandMatchesMathRand, FuzzRandStream) — from a
// source that costs what is drawn from it (randSource).
func (e *Env) Rand(name string) *Rand {
	r := new(Rand)
	e.InitRand(r, name)
	return r
}

// InitRand makes *r the stream Rand(name) returns, in place, for a caller
// that holds its streams by value (fio's workers, thousands a phase). A
// register r already has is kept for the new stream. r points into itself,
// so it must not be copied or moved afterwards.
func (e *Env) InitRand(r *Rand, name string) {
	// FNV-1a over the name, in place.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	InitRand(r, e.seed^int64(h))
}

// Rand is one stream: a math/rand Rand and the randSource it draws from,
// one object of 96 bytes until the stream's 33rd draw allocates the source's
// register. It points into itself, so it is only used by pointer, or in
// place inside a value that never moves.
type Rand struct {
	rand.Rand
	src randSource
}

// InitRand makes *r the stream rand.New(rand.NewSource(seed)) draws, in
// place: the seed-in-place twin of Env.InitRand, behind the load generators'
// fixed-seed streams, which their clients hold by value so that a stream costs
// one allocation, its register, and none for itself. Like Env.InitRand, it
// keeps a register r already has, and r must not move afterwards.
func InitRand(r *Rand, seed int64) {
	r.src.Seed(seed)
	r.Rand = *rand.New(&r.src)
}

// Text fills dst with letters of alphabet, each alphabet[r.Intn(len(alphabet))],
// and leaves the stream where those draws leave it. It runs the source's
// recurrence in place, over stretches of the register where neither index
// wraps, and takes the remainder by Lemire's fastmod instead of a divide:
// for a 31-bit v, v mod n is the high word of (m·v mod 2⁶⁴)·n with
// m = ⌈2⁶⁴/n⌉. Int31n's power-of-two mask is the same function — no draw is
// rejected and v & (n−1) is v mod n. A source whose register is not built
// yet (randSource.left) and an alphabet Intn does not take through Int31n
// draw one letter at a time.
func (r *Rand) Text(dst []byte, alphabet string) {
	s := &r.src
	n := uint64(len(alphabet))
	i := 0
	for ; i < len(dst) && (s.left != 0 || n-1 >= 1<<31-1); i++ {
		dst[i] = alphabet[r.Intn(len(alphabet))]
	}
	if i == len(dst) {
		return
	}
	limit := uint32(1<<31 - 1 - (1<<31)%n) // Int31n's rejection bound
	m := ^uint64(0)/n + 1
	tap, feed := s.tap, s.feed
	for i < len(dst) {
		if tap == 0 {
			tap = rngLen
		}
		if feed == 0 {
			feed = rngLen
		}
		run := min(tap, feed)
		fv, tv := s.vec[feed-run:feed], s.vec[tap-run:tap]
		j := run
		for j > 0 && i < len(dst) {
			j--
			x := fv[j] + tv[j]
			fv[j] = x
			if v := uint32(uint64(x) << 1 >> 33); v <= limit { // Int31: bits 32..62
				hi, _ := bits.Mul64(m*uint64(v), n)
				dst[i] = alphabet[hi]
				i++
			}
		}
		tap, feed = tap-run+j, feed-run+j
	}
	s.tap, s.feed = tap, feed
}

// randSource is math/rand's seeded Source — the additive lagged-Fibonacci
// generator x[n] = x[n-607] + x[n-273] of its rngSource — with the seeding
// done on demand. math/rand fills all 607 words at Seed by stepping
// seedrand, x ← 48271·x mod (2³¹−1), 1 841 times, each step waiting on the
// last: ~10 µs and a 4 856-byte register, where a simulation makes
// thousands of streams (one per fio worker per phase) that draw a handful
// of numbers each. The recurrence has a closed form, step k is
// 48271ᵏ·x₀ mod (2³¹−1), so any word can be computed alone from a table of
// powers. Over its first lazyDraws draws the feed and tap indices each walk
// down a stretch of the register of their own, so each of those draws reads
// two words nothing has written yet: it computes both, returns their sum
// and keeps nothing. The next draw allocates the register (or reuses the
// one a re-Seed left), seeds every word, and replays the lazy draws' stores
// — each feed word it passed plus the tap word read with it — so a stream
// that draws no more than lazyDraws numbers never has a register, and a
// long-lived one checks one counter against zero per draw and otherwise
// runs rngSource's loop.
type randSource struct {
	tap, feed int
	left      int    // draws until the register is built, that one included; 0 once it is
	x0        uint64 // the seed, reduced as rngSource.Seed reduces it
	vec       *[rngLen]int64
}

const (
	rngLen    = 607
	rngTap    = 273
	rngMask   = 1<<63 - 1
	seedMod   = 1<<31 - 1
	lazyDraws = 32
)

// seedPow[k] is 48271ᵏ mod (2³¹−1). rngSource.Seed discards 20 steps, then
// takes three per word: word i is built from steps 21+3i, 22+3i and 23+3i.
var seedPow = func() (p [21 + 3*rngLen]uint32) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = uint32(uint64(p[k-1]) * 48271 % seedMod)
	}
	return p
}()

// Seed implements rand.Source.
func (s *randSource) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0, s.left = uint64(seed), lazyDraws+1
}

// word returns what rngSource.Seed stores in vec[i].
func (s *randSource) word(i int) int64 {
	p := seedPow[21+3*i:][:3]
	a, b, c := s.x0*uint64(p[0])%seedMod, s.x0*uint64(p[1])%seedMod, s.x0*uint64(p[2])%seedMod
	return int64(a<<40^b<<20^c) ^ rngCooked[i]
}

// lazyDraw makes the draw in progress of a source whose register is not
// built: one of the first lazyDraws draws returns its value, computed from
// the two words it reads, and ok; the draw after them builds the register
// and returns !ok, to read it as every later draw does.
func (s *randSource) lazyDraw() (x int64, ok bool) {
	if s.left--; s.left > 0 {
		return s.word(s.feed) + s.word(s.tap), true
	}
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	// Draw k (from 1) read feed word rngLen-rngTap-k and tap word rngLen-k,
	// and stored their sum at the feed word.
	for k := 1; k <= lazyDraws; k++ {
		s.vec[rngLen-rngTap-k] += s.vec[rngLen-k]
	}
	return 0, false
}

// Int63 implements rand.Source. It and Uint64 are one flat body each: the
// application generators draw hundreds of numbers per block I/O through
// these two, and a shared helper between them costs more than the seeding
// saves.
func (s *randSource) Int63() int64 {
	tap, feed := s.tap-1, s.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	s.tap, s.feed = tap, feed
	if s.left != 0 {
		if x, ok := s.lazyDraw(); ok {
			return x & rngMask
		}
	}
	x := s.vec[feed] + s.vec[tap]
	s.vec[feed] = x
	return x & rngMask
}

// Uint64 implements rand.Source64.
func (s *randSource) Uint64() uint64 {
	tap, feed := s.tap-1, s.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	s.tap, s.feed = tap, feed
	if s.left != 0 {
		if x, ok := s.lazyDraw(); ok {
			return uint64(x)
		}
	}
	x := s.vec[feed] + s.vec[tap]
	s.vec[feed] = x
	return uint64(x)
}

// Pacer meters a flow to a byte-per-second rate over virtual time. It is the
// bandwidth-regulator primitive used for PCIe links and SSD internal buses:
// each transfer reserves the next free slot on the wire and the caller
// sleeps until its last byte would have left.
type Pacer struct {
	env  *Env
	bps  float64 // bytes per second
	free Time    // next time the wire is free
}

// NewPacer returns a pacer with the given capacity in bytes per second.
func NewPacer(env *Env, bytesPerSecond float64) *Pacer {
	if bytesPerSecond <= 0 {
		panic("sim: pacer rate must be positive")
	}
	return &Pacer{env: env, bps: bytesPerSecond}
}

// Reserve books n bytes on the wire and returns the virtual time at which
// the transfer completes. It never blocks; combine with Proc.Sleep or
// Env.Schedule to model the elapsed transfer.
func (pc *Pacer) Reserve(n int64) Time {
	now := pc.env.now
	start := pc.free
	if start < now {
		start = now
	}
	dur := Time(math.Round(float64(n) / pc.bps * 1e9))
	if dur < 1 {
		dur = 1
	}
	pc.free = start + dur
	return pc.free
}

// Backlog returns how far in the future the wire is currently booked.
func (pc *Pacer) Backlog() Time {
	if pc.free <= pc.env.now {
		return 0
	}
	return pc.free - pc.env.now
}
