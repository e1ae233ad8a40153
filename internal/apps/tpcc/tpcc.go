// Package tpcc implements a TPC-C-shaped transaction workload against the
// minidb engine: the five transaction types at their standard mix, with
// the standard per-transaction read/write row counts, over warehouse /
// district / customer / stock / order tables keyed into the clustered
// B+tree. Population sizes are scaled down (documented in DESIGN.md) but
// the I/O pattern — bursts of random page reads, redo-log group commits —
// matches what MySQL produces under tpcc-mysql, which is what the paper's
// Fig. 13a measures.
package tpcc

import (
	"fmt"

	"bmstore/internal/apps/minidb"
	"bmstore/internal/sim"
	"bmstore/internal/stats"
)

// Table identifiers packed into the key's top byte.
const (
	tWarehouse = iota + 1
	tDistrict
	tCustomer
	tStock
	tItem
	tOrder
	tOrderLine
	tNewOrder
	tHistory
)

func k(table int, w, d, id uint64) uint64 {
	return uint64(table)<<56 | w<<40 | d<<32 | id
}

// TPC-C's fixed shape: ten districts per warehouse, and the row size every
// table is written with.
const (
	districtsPerWH = 10
	rowBytes       = 220
)

// Config sizes the run. ItemsPerWarehouse and CustomersPerDistrict are
// scaled from TPC-C's 100000/3000 to keep simulated load times sane; the
// access skew and per-transaction row counts are preserved.
type Config struct {
	Warehouses           int
	ItemsPerWarehouse    int
	CustomersPerDistrict int
	Threads              int
	Duration             sim.Time
	// QueryCPU models MySQL's CPU work per row access (parse, plan,
	// buffer-pool bookkeeping), keeping the compute/storage balance
	// realistic at scaled-down populations.
	QueryCPU sim.Time
}

// DefaultConfig is the scaled workload used by the Fig. 13a experiment.
func DefaultConfig() Config {
	return Config{
		Warehouses:           16,
		ItemsPerWarehouse:    2000,
		CustomersPerDistrict: 120,
		Threads:              32,
		Duration:             2 * sim.Second,
		QueryCPU:             40 * sim.Microsecond,
	}
}

// Result is one run's outcome.
type Result struct {
	NewOrders   uint64 // the tpmC numerator
	Payments    uint64
	OrderStatus uint64
	Deliveries  uint64
	StockLevels uint64
	Lat         stats.Hist
	Duration    sim.Time
}

// Total returns all completed transactions.
func (r *Result) Total() uint64 {
	return r.NewOrders + r.Payments + r.OrderStatus + r.Deliveries + r.StockLevels
}

// TpmC returns new-order transactions per minute.
func (r *Result) TpmC() float64 {
	if r.Duration == 0 {
		return 0
	}
	return float64(r.NewOrders) / (float64(r.Duration) / 1e9) * 60
}

// capitals is the alphabet of a row.
const capitals = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

// terminal is one client: its stream, held in place, and the row buffer it
// refills for every write — Txn.Write and DB.Put keep their own copy of a
// row. One allocation holds both, and the stream's register is its only
// other.
type terminal struct {
	rng sim.Rand
	buf [rowBytes]byte
}

// row fills the buffer with fresh capitals and returns it.
func (t *terminal) row() []byte {
	t.rng.Text(t.buf[:], capitals)
	return t.buf[:]
}

// Load populates the database.
func Load(p *sim.Proc, db *minidb.DB, cfg Config) error {
	t := new(terminal)
	sim.InitRand(&t.rng, 1234)
	put := func(key uint64) error { return db.Put(p, key, t.row()) }
	for w := 0; w < cfg.Warehouses; w++ {
		wid := uint64(w)
		if err := put(k(tWarehouse, wid, 0, 0)); err != nil {
			return err
		}
		for i := 0; i < cfg.ItemsPerWarehouse; i++ {
			if err := put(k(tStock, wid, 0, uint64(i))); err != nil {
				return err
			}
		}
		for d := 0; d < districtsPerWH; d++ {
			did := uint64(d)
			if err := put(k(tDistrict, wid, did, 0)); err != nil {
				return err
			}
			for c := 0; c < cfg.CustomersPerDistrict; c++ {
				if err := put(k(tCustomer, wid, did, uint64(c))); err != nil {
					return err
				}
			}
		}
	}
	for i := 0; i < cfg.ItemsPerWarehouse; i++ {
		if err := put(k(tItem, 0, 0, uint64(i))); err != nil {
			return err
		}
	}
	return db.Checkpoint(p)
}

// Run executes the standard mix with cfg.Threads terminals.
func Run(p *sim.Proc, env *sim.Env, db *minidb.DB, cfg Config) *Result {
	res := &Result{Duration: cfg.Duration}
	end := p.Now() + cfg.Duration
	var orderSeq uint64
	var done []*sim.Event
	for th := 0; th < cfg.Threads; th++ {
		// The empty segment is part of the stream names the pinned runs
		// draw from.
		t := new(terminal)
		env.InitRand(&t.rng, fmt.Sprintf("tpcc//%d", th))
		proc := env.Go(fmt.Sprintf("tpcc/t%d", th), func(tp *sim.Proc) {
			rng := &t.rng
			for tp.Now() < end {
				start := tp.Now()
				var kind int
				switch x := rng.Intn(100); {
				case x < 45:
					kind = 0
					orderSeq++
					newOrder(tp, db, cfg, t, orderSeq)
				case x < 88:
					kind = 1
					payment(tp, db, cfg, t)
				case x < 92:
					kind = 2
					orderStatus(tp, db, cfg, rng)
				case x < 96:
					kind = 3
					delivery(tp, db, cfg, t, orderSeq)
				default:
					kind = 4
					stockLevel(tp, db, cfg, rng)
				}
				if tp.Now() > end {
					break
				}
				switch kind {
				case 0:
					res.NewOrders++
				case 1:
					res.Payments++
				case 2:
					res.OrderStatus++
				case 3:
					res.Deliveries++
				case 4:
					res.StockLevels++
				}
				res.Lat.Record(tp.Now() - start)
			}
		})
		done = append(done, proc.Done())
	}
	for _, ev := range done {
		p.Wait(ev)
	}
	return res
}

func (c Config) anyW(rng *sim.Rand) uint64 { return uint64(rng.Intn(c.Warehouses)) }
func (c Config) anyD(rng *sim.Rand) uint64 { return uint64(rng.Intn(districtsPerWH)) }
func (c Config) anyC(rng *sim.Rand) uint64 { return uint64(rng.Intn(c.CustomersPerDistrict)) }
func (c Config) anyI(rng *sim.Rand) uint64 { return uint64(rng.Intn(c.ItemsPerWarehouse)) }

// newOrder: reads warehouse/district/customer, then 5-15 order lines each
// reading the item and read-modify-writing the stock row; inserts the
// order, its lines, and the new-order marker.
func newOrder(p *sim.Proc, db *minidb.DB, cfg Config, t *terminal, seq uint64) {
	rng := &t.rng
	w, d, c := cfg.anyW(rng), cfg.anyD(rng), cfg.anyC(rng)
	tx := db.Begin()
	p.Sleep(4 * cfg.QueryCPU)
	tx.Read(p, k(tWarehouse, w, 0, 0))
	tx.Read(p, k(tDistrict, w, d, 0))
	tx.Write(k(tDistrict, w, d, 0), t.row()) // next_o_id++
	tx.Read(p, k(tCustomer, w, d, c))
	lines := 5 + rng.Intn(11)
	for l := 0; l < lines; l++ {
		p.Sleep(4 * cfg.QueryCPU)
		item := cfg.anyI(rng)
		// 1% remote warehouse accesses, per the spec.
		sw := w
		if rng.Intn(100) == 0 && cfg.Warehouses > 1 {
			sw = cfg.anyW(rng)
		}
		tx.Read(p, k(tItem, 0, 0, item))
		tx.Read(p, k(tStock, sw, 0, item))
		tx.Write(k(tStock, sw, 0, item), t.row())
		tx.Write(k(tOrderLine, w, d, seq<<4|uint64(l)), t.row())
	}
	tx.Write(k(tOrder, w, d, seq), t.row())
	tx.Write(k(tNewOrder, w, d, seq), t.row())
	tx.Commit(p)
}

// payment: updates warehouse, district and customer balances and logs
// history.
func payment(p *sim.Proc, db *minidb.DB, cfg Config, t *terminal) {
	rng := &t.rng
	w, d, c := cfg.anyW(rng), cfg.anyD(rng), cfg.anyC(rng)
	tx := db.Begin()
	p.Sleep(7 * cfg.QueryCPU)
	tx.Read(p, k(tWarehouse, w, 0, 0))
	tx.Write(k(tWarehouse, w, 0, 0), t.row())
	tx.Read(p, k(tDistrict, w, d, 0))
	tx.Write(k(tDistrict, w, d, 0), t.row())
	tx.Read(p, k(tCustomer, w, d, c))
	tx.Write(k(tCustomer, w, d, c), t.row())
	tx.Write(k(tHistory, w, d, uint64(rng.Int63())>>20), t.row())
	tx.Commit(p)
}

// orderStatus: read-only lookup of a customer's latest order.
func orderStatus(p *sim.Proc, db *minidb.DB, cfg Config, rng *sim.Rand) {
	w, d, c := cfg.anyW(rng), cfg.anyD(rng), cfg.anyC(rng)
	tx := db.Begin()
	p.Sleep(3 * cfg.QueryCPU)
	tx.Read(p, k(tCustomer, w, d, c))
	tx.ReadRange(p, k(tOrder, w, d, 0), 10)
	tx.Commit(p)
}

// delivery: drains up to 10 new-order markers, updating each order and
// customer.
func delivery(p *sim.Proc, db *minidb.DB, cfg Config, t *terminal, seq uint64) {
	rng := &t.rng
	w := cfg.anyW(rng)
	tx := db.Begin()
	p.Sleep(10 * cfg.QueryCPU)
	for d := 0; d < districtsPerWH; d++ {
		rows, _ := tx.ReadRange(p, k(tNewOrder, w, uint64(d), 0), 1)
		if len(rows) == 0 {
			continue
		}
		tx.Write(rows[0].Key, t.row()) // mark delivered
		tx.Write(k(tCustomer, w, uint64(d), cfg.anyC(rng)), t.row())
	}
	_ = seq
	tx.Commit(p)
}

// stockLevel: district read plus a stock range scan.
func stockLevel(p *sim.Proc, db *minidb.DB, cfg Config, rng *sim.Rand) {
	w, d := cfg.anyW(rng), cfg.anyD(rng)
	tx := db.Begin()
	p.Sleep(3 * cfg.QueryCPU)
	tx.Read(p, k(tDistrict, w, d, 0))
	tx.ReadRange(p, k(tStock, w, 0, cfg.anyI(rng)), 20)
	tx.Commit(p)
}
