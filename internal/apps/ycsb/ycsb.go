// Package ycsb implements the Yahoo! Cloud Serving Benchmark core
// workloads against the kvstore engine, with the standard zipfian request
// distribution. It drives the paper's RocksDB
// experiments (Fig. 14's mixed-workload VMs).
package ycsb

import (
	"fmt"
	"math"

	"bmstore/internal/apps/kvstore"
	"bmstore/internal/sim"
	"bmstore/internal/stats"
)

// Workload is one YCSB core workload definition: the proportions of reads,
// updates and inserts, and scans of up to MaxScanLen records for the rest.
type Workload struct {
	Name       string
	ReadProp   float64
	UpdateProp float64
	InsertProp float64
	MaxScanLen int
}

// The standard core workloads.
func WorkloadA() Workload {
	return Workload{Name: "A", ReadProp: 0.5, UpdateProp: 0.5}
}
func WorkloadB() Workload {
	return Workload{Name: "B", ReadProp: 0.95, UpdateProp: 0.05}
}
func WorkloadC() Workload {
	return Workload{Name: "C", ReadProp: 1.0}
}

// Config sizes a run.
type Config struct {
	Records    int
	ValueBytes int
	Threads    int
	Duration   sim.Time
	Seed       string
}

// DefaultYCSB uses a scaled-down record count that still spills well past
// the memtable into the table levels.
func DefaultYCSB() Config {
	return Config{Records: 20000, ValueBytes: 400, Threads: 8, Duration: 2 * sim.Second}
}

// Result is one run's outcome.
type Result struct {
	Workload string
	Ops      uint64
	Failed   uint64
	Lat      stats.Hist
	Duration sim.Time
}

// Throughput returns operations per second.
func (r *Result) Throughput() float64 {
	if r.Duration == 0 {
		return 0
	}
	return float64(r.Ops) / (float64(r.Duration) / 1e9)
}

// key appends fmt.Sprintf("user%012d", i) to dst, written digit by digit
// for the record indexes the workloads use.
func key(dst []byte, i int) []byte {
	if i < 0 || i >= 1e12 {
		return fmt.Appendf(dst, "user%012d", i)
	}
	dst = append(dst, "user000000000000"...)
	for p := len(dst) - 1; i > 0; p-- {
		dst[p] = byte('0' + i%10)
		i /= 10
	}
	return dst
}

// letters is the alphabet of a value.
const letters = "abcdefghijklmnopqrstuvwxyz"

// client is one YCSB client: its stream, held in place, the generator that
// draws keys from it, and the key, value and read buffers it refills per
// operation — the store copies what it keeps and reads a key only during the
// call. One allocation holds them all, and the stream's register is its
// only other.
type client struct {
	rng        sim.Rand
	zipf       Zipfian
	kb, vb, rb []byte
}

func newClient(valueBytes int) *client {
	return &client{vb: make([]byte, valueBytes)}
}

// Load inserts the initial records and flushes. The store keeps its own
// copy of each key and value, so one buffer of each serves every record.
func Load(p *sim.Proc, s *kvstore.Store, cfg Config) error {
	c := newClient(cfg.ValueBytes)
	sim.InitRand(&c.rng, 4242)
	for i := 0; i < cfg.Records; i++ {
		c.kb = key(c.kb[:0], i)
		c.rng.Text(c.vb, letters)
		if err := s.Put(p, c.kb, c.vb); err != nil {
			return err
		}
	}
	if err := s.Flush(p); err != nil {
		return err
	}
	s.WaitIdle(p)
	return nil
}

// Run executes the workload with cfg.Threads client threads for
// cfg.Duration of virtual time.
func Run(p *sim.Proc, env *sim.Env, s *kvstore.Store, wl Workload, cfg Config) *Result {
	res := &Result{Workload: wl.Name, Duration: cfg.Duration}
	end := p.Now() + cfg.Duration
	inserted := cfg.Records
	// The generator's constants depend on the key count alone and cost one
	// math.Pow per key to compute: once per run, a copy per client.
	consts := zipfian(cfg.Records)
	var done []*sim.Event
	for th := 0; th < cfg.Threads; th++ {
		c := newClient(cfg.ValueBytes)
		env.InitRand(&c.rng, fmt.Sprintf("ycsb/%s/%s/%d", cfg.Seed, wl.Name, th))
		c.zipf = consts
		c.zipf.rng = &c.rng
		proc := env.Go(fmt.Sprintf("ycsb/%s/t%d", wl.Name, th), func(tp *sim.Proc) {
			rng := &c.rng
			for tp.Now() < end {
				c.kb = key(c.kb[:0], c.zipf.Next())
				start := tp.Now()
				var err error
				switch pick(wl, rng) {
				case opRead:
					c.rb, _, err = s.Get(tp, c.kb, c.rb[:0])
				case opUpdate:
					rng.Text(c.vb, letters)
					err = s.Put(tp, c.kb, c.vb)
				case opInsert:
					inserted++
					c.kb = key(c.kb[:0], inserted)
					rng.Text(c.vb, letters)
					err = s.Put(tp, c.kb, c.vb)
				case opScan:
					n := 1 + rng.Intn(wl.MaxScanLen)
					_, err = s.Scan(tp, c.kb, n)
				}
				if tp.Now() <= end {
					res.Ops++
					res.Lat.Record(tp.Now() - start)
					if err != nil {
						res.Failed++
					}
				}
			}
		})
		done = append(done, proc.Done())
	}
	for _, ev := range done {
		p.Wait(ev)
	}
	return res
}

type op int

const (
	opRead op = iota
	opUpdate
	opInsert
	opScan
)

func pick(wl Workload, rng *sim.Rand) op {
	x := rng.Float64()
	switch {
	case x < wl.ReadProp:
		return opRead
	case x < wl.ReadProp+wl.UpdateProp:
		return opUpdate
	case x < wl.ReadProp+wl.UpdateProp+wl.InsertProp:
		return opInsert
	default:
		return opScan
	}
}

// Zipfian is the Gray et al. bounded zipfian generator YCSB uses
// (theta 0.99), with the scrambled variant folded in by the caller's use
// of hashed string keys.
type Zipfian struct {
	rng    *sim.Rand
	n      int
	alpha  float64
	zetan  float64
	eta    float64
	second float64 // 1 + 0.5^theta: where key 1's share of u·zetan ends
}

// zipfian returns a generator over n keys that has its constants and no
// random source yet: its owner sets rng.
func zipfian(n int) Zipfian {
	const theta = 0.99
	z := Zipfian{n: n, second: 1 + math.Pow(0.5, theta)}
	z.zetan = zeta(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

func zeta(n int, theta float64) float64 {
	var sum float64
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next key index in [0, n).
func (z *Zipfian) Next() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.second {
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}
