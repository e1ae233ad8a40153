// Package sysbench implements the sysbench oltp_read_write workload
// against the minidb engine: per transaction, 10 point selects, 4 range
// reads, 2 updates, 1 delete-equivalent rewrite and 1 insert, committed
// under group commit. It drives the paper's MySQL Sysbench experiments
// (Fig. 13b, Table VIII, Fig. 14b).
package sysbench

import (
	"fmt"

	"bmstore/internal/apps/minidb"
	"bmstore/internal/sim"
	"bmstore/internal/stats"
)

// Config sizes a run.
type Config struct {
	TableSize int
	Threads   int
	Duration  sim.Time
	Seed      string
	// QueryCPU models the MySQL-side CPU work per query (parse, plan,
	// execute): it keeps the workload's compute/storage ratio realistic
	// when the dataset is scaled down.
	QueryCPU sim.Time
}

// DefaultConfig is a scaled-down sbtest table.
func DefaultConfig() Config {
	return Config{TableSize: 50000, Threads: 16, Duration: 2 * sim.Second,
		QueryCPU: 40 * sim.Microsecond}
}

// rowBytes is the size of an sbtest row.
const rowBytes = 190

// Result is one run's outcome.
type Result struct {
	Transactions uint64
	Queries      uint64
	Lat          stats.Hist // per-transaction latency
	Duration     sim.Time
}

// TPS returns transactions per second.
func (r *Result) TPS() float64 {
	if r.Duration == 0 {
		return 0
	}
	return float64(r.Transactions) / (float64(r.Duration) / 1e9)
}

// QPS returns queries per second.
func (r *Result) QPS() float64 {
	if r.Duration == 0 {
		return 0
	}
	return float64(r.Queries) / (float64(r.Duration) / 1e9)
}

// AvgLatencyMS returns mean transaction latency in milliseconds.
func (r *Result) AvgLatencyMS() float64 { return r.Lat.Mean() / 1e6 }

// digits is the alphabet of a row.
const digits = "0123456789"

// client is one sysbench client: its stream, held in place, and the row
// buffer it refills for every write — DB.Put and Txn.Write copy the row. One
// allocation holds both, and the stream's register is its only other.
type client struct {
	rng sim.Rand
	buf [rowBytes]byte
}

// row fills the buffer with fresh digits and returns it.
func (c *client) row() []byte {
	c.rng.Text(c.buf[:], digits)
	return c.buf[:]
}

// Load populates the sbtest table.
func Load(p *sim.Proc, db *minidb.DB, cfg Config) error {
	c := new(client)
	sim.InitRand(&c.rng, 777)
	for i := 0; i < cfg.TableSize; i++ {
		if err := db.Put(p, uint64(i), c.row()); err != nil {
			return err
		}
	}
	return db.Checkpoint(p)
}

// Run executes oltp_read_write with cfg.Threads for cfg.Duration.
func Run(p *sim.Proc, env *sim.Env, db *minidb.DB, cfg Config) *Result {
	res := &Result{Duration: cfg.Duration}
	end := p.Now() + cfg.Duration
	nextInsert := uint64(cfg.TableSize)
	var done []*sim.Event
	for th := 0; th < cfg.Threads; th++ {
		c := new(client)
		env.InitRand(&c.rng, fmt.Sprintf("sysbench/%s/%d", cfg.Seed, th))
		proc := env.Go(fmt.Sprintf("sysbench/t%d", th), func(tp *sim.Proc) {
			rng, row := &c.rng, c.row
			for tp.Now() < end {
				start := tp.Now()
				tx := db.Begin()
				queries := uint64(2) // BEGIN/COMMIT
				// 10 point selects.
				for i := 0; i < 10; i++ {
					tp.Sleep(cfg.QueryCPU)
					tx.Read(tp, uint64(rng.Intn(cfg.TableSize)))
					queries++
				}
				// 4 range reads of ~20 rows (sum/order/distinct variants).
				for i := 0; i < 4; i++ {
					tp.Sleep(cfg.QueryCPU)
					tx.ReadRange(tp, uint64(rng.Intn(cfg.TableSize)), 20)
					queries++
				}
				// 2 updates.
				for i := 0; i < 2; i++ {
					tp.Sleep(cfg.QueryCPU)
					tx.Write(uint64(rng.Intn(cfg.TableSize)), row())
					queries++
				}
				// delete + insert pair (modelled as a rewrite plus a fresh row).
				tp.Sleep(2 * cfg.QueryCPU)
				tx.Write(uint64(rng.Intn(cfg.TableSize)), row())
				nextInsert++
				tx.Write(nextInsert, row())
				queries += 2
				if err := tx.Commit(tp); err != nil {
					panic(fmt.Sprintf("sysbench: commit: %v", err))
				}
				if tp.Now() <= end {
					res.Transactions++
					res.Queries += queries
					res.Lat.Record(tp.Now() - start)
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
