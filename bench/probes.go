package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"benchpress/internal/benchmarks/ycsb"
	"benchpress/internal/core"
	"benchpress/internal/dbdriver"
	"benchpress/internal/sqldb/parser"
	"benchpress/internal/sqldb/storage/heap"
	"benchpress/internal/stats"
	"benchpress/internal/trace"
	"benchpress/internal/wal"
)

// A micro-probe is a single-goroutine timed loop over one public function.
// It stops at probeCalls calls, or at probeBudget if the function waits (a
// group-commit wait is half a millisecond), and reports the median.
const (
	probeCalls  = 10000
	probeBudget = 400 * time.Millisecond
)

// probes collects per-layer numbers by name into v. Smoke mode shrinks calls
// and budget.
type probes struct {
	v      map[string]float64
	calls  int
	budget time.Duration
}

// loop calls fn until p.calls calls are made or p.budget has passed (never
// fewer than 20) and returns the median of the times fn reports, in ns. fn
// reports only the part of its work that is the probe.
func (p probes) loop(fn func(i int) (time.Duration, error)) (float64, error) {
	var took []float64
	deadline := time.Now().Add(p.budget)
	for i := 0; i < p.calls && (i < 20 || time.Now().Before(deadline)); i++ {
		d, err := fn(i)
		if err != nil {
			return 0, err
		}
		took = append(took, float64(d.Nanoseconds()))
	}
	return median(took), nil
}

// whole adapts a call that is the probe from start to end.
func whole(fn func(i int) error) func(int) (time.Duration, error) {
	return func(i int) (time.Duration, error) {
		start := time.Now()
		err := fn(i)
		return time.Since(start), err
	}
}

// us records the median time of fn in microseconds.
func (p probes) us(name string, fn func(i int) (time.Duration, error)) error {
	v, err := p.loop(fn)
	if err != nil {
		return fmt.Errorf("probe %s: %w", name, err)
	}
	p.v[name] = v / 1e3
	return nil
}

// ns records the median per-call time of fn in ns, timing batches of a
// hundred calls because one call is near the cost of reading the clock.
func (p probes) ns(name string, fn func(i int) error) error {
	const batch = 100
	var per []float64
	for n := 0; n < p.calls; n += batch {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(n + i); err != nil {
				return fmt.Errorf("probe %s: %w", name, err)
			}
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/batch)
	}
	p.v[name] = median(per)
	return nil
}

// pair runs a waiting call from two goroutines at once and records the mean
// of their medians in microseconds: with one serialized resource behind the
// call it is twice the single-caller figure. mk builds goroutine g's call
// and its clean-up.
func (p probes) pair(name string, mk func(g int) (func(int) (time.Duration, error), func())) error {
	var wg sync.WaitGroup
	var res [2]float64
	var errs [2]error
	for g := range res {
		fn, done := mk(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer done()
			res[g], errs[g] = p.loop(fn)
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
	}
	p.v[name] = (res[0] + res[1]) / 2 / 1e3
	return nil
}

// noop is the bench-local benchmark behind core.noop_txn_ns: one procedure
// that does nothing, so a closed-loop Manager over it costs exactly what
// core, stats and an empty Begin/Commit cost.
type noop struct{}

func (noop) Name() string { return "noop" }
func (noop) Procedures() []core.Procedure {
	return []core.Procedure{{Name: "Noop", Fn: func(*dbdriver.Conn, *rand.Rand) error { return nil }}}
}
func (noop) DefaultMix() []float64               { return []float64{1} }
func (noop) CreateSchema(*dbdriver.Conn) error   { return nil }
func (noop) Load(*dbdriver.DB, *rand.Rand) error { return nil }

// standalone runs the probes that need no loaded engine: core over a no-op
// benchmark, the stats recorder, the WAL and the page heap.
func (p probes) standalone(w workload) error {
	db, err := dbdriver.Open(w.db)
	if err != nil {
		return err
	}
	const noopFor = 300 * time.Millisecond
	m := core.NewManager(noop{}, db, []core.Phase{{Duration: noopFor}}, core.Options{Terminals: 1})
	err = m.Run(context.Background())
	db.Close()
	if err != nil {
		return err
	}
	p.v["core.noop_txn_ns"] = float64(noopFor.Nanoseconds()) / float64(m.Collector().Committed())

	// What tracing adds to one transaction: the decorator around the body
	// and the observer's clock reading.
	tr := newTracer(noop{})
	body := tr.Procedures()[0].Fn
	obs := newObserver([]string{"Noop"}, p.calls)
	obs.epoch = tr.epoch
	if err := p.ns("trace.cost_ns", func(int) error {
		err := body(nil, nil)
		obs.ObserveAttempt(trace.Entry{Type: "Noop"}, nil)
		return err
	}); err != nil {
		return err
	}

	rec := stats.NewCollector([]string{"t"}).Recorder(0)
	if err := p.ns("stats.record_ns", func(i int) error {
		rec.Record(0, stats.StatusOK, time.Duration(50+i%100)*time.Microsecond)
		return nil
	}); err != nil {
		return err
	}

	// The flush policy of the golock personality, the one the write
	// workloads run under.
	log := wal.New(wal.Options{Policy: wal.SyncGroup, GroupInterval: 500 * time.Microsecond})
	payload := make([]byte, 128)
	appendRec := whole(func(int) error { return log.AppendRecord(payload) })
	err = p.us("wal.append_us.c1", appendRec)
	if err == nil {
		err = p.pair("wal.append_us.c2", func(int) (func(int) (time.Duration, error), func()) {
			return appendRec, func() {}
		})
	}
	log.Close()
	if err != nil {
		return err
	}
	return p.heap()
}

// heap probes a standalone 64-frame pool over a 256-page file: a pin that
// hits, a pin that misses (cycling through four times the pool evicts on
// every call) and a record put into a page.
func (p probes) heap() error {
	dir, err := os.MkdirTemp("", "benchpress-heap-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dev, err := heap.OpenFileDevice(filepath.Join(dir, "heap.db"))
	if err != nil {
		return err
	}
	defer dev.Close()
	const pages = 256
	buf := make([]byte, heap.PageSize)
	for id := uint32(0); id < pages; id++ {
		heap.Format(buf, id)
		heap.Seal(buf)
		if err := dev.WritePage(id, buf); err != nil {
			return err
		}
	}
	pool := heap.NewPool(heap.PoolOptions{Pages: 64, Device: dev})
	pin := func(id uint32) error {
		f, err := pool.Pin(id)
		if err != nil {
			return err
		}
		pool.Unpin(f, false)
		return nil
	}
	if err := p.ns("heap.pin_hit_ns", func(int) error { return pin(0) }); err != nil {
		return err
	}
	if err := p.us("heap.pin_miss_us", whole(func(i int) error { return pin(uint32(i % pages)) })); err != nil {
		return err
	}
	page := heap.Format(buf, 0)
	rec := make([]byte, 100)
	return p.ns("heap.page_put_ns", func(i int) error { return page.Put(i%16, rec) })
}

// engine runs the probes that need a loaded table: a YCSB usertable of
// 10 000 rows on a fresh engine of the workload's own personality (for
// ycsb_disk a disk-resident one with the workload's pool), so each
// workload's numbers are those of the engine it runs on.
func (p probes) engine(w workload, seed int64) error {
	db, dir, err := w.open()
	if err != nil {
		return err
	}
	t := &target{db: db, bench: ycsb.New(1), dir: dir}
	defer t.close()
	if err := core.Prepare(t.bench, db, seed); err != nil {
		return err
	}
	const rows = 10000
	const read = "SELECT * FROM usertable WHERE ycsb_key = ?"
	const update = "UPDATE usertable SET field1 = ? WHERE ycsb_key = ?"
	val := strings.Repeat("v", 75)
	conn := db.Connect()
	defer conn.Close()

	if err := p.us("dbdriver.exec_text_us", whole(func(i int) error {
		_, err := conn.QueryRow(read, i%rows)
		return err
	})); err != nil {
		return err
	}
	st, err := conn.Prepare(read)
	if err != nil {
		return err
	}
	defer st.Close()
	if err := p.us("dbdriver.stmt_exec_us", whole(func(i int) error {
		_, err := st.Exec(i % rows)
		return err
	})); err != nil {
		return err
	}
	if err := p.us("sqldb.scan100_us", whole(func(i int) error {
		k := i % (rows - 100)
		_, err := conn.Query("SELECT * FROM usertable WHERE ycsb_key >= ? AND ycsb_key <= ? LIMIT 100", k, k+100)
		return err
	})); err != nil {
		return err
	}

	// inTxn times one statement inside a transaction that is then rolled
	// back: no group-commit wait, and the table stays as loaded.
	inTxn := func(c *dbdriver.Conn, stmt func(i int) error) func(int) (time.Duration, error) {
		return func(i int) (time.Duration, error) {
			if err := c.Begin(); err != nil {
				return 0, err
			}
			start := time.Now()
			err := stmt(i)
			took := time.Since(start)
			if rerr := c.Rollback(); err == nil {
				err = rerr
			}
			return took, err
		}
	}
	insert := "INSERT INTO usertable VALUES (?" + strings.Repeat(", ?", 10) + ")"
	args := []any{0, val, val, val, val, val, val, val, val, val, val}
	if err := p.us("sqldb.insert_us", inTxn(conn, func(i int) error {
		args[0] = rows + i
		_, err := conn.Exec(insert, args...)
		return err
	})); err != nil {
		return err
	}
	if err := p.us("sqldb.update_exec_us", inTxn(conn, func(i int) error {
		_, err := conn.Exec(update, val, i%rows)
		return err
	})); err != nil {
		return err
	}

	if err := p.ns("txn.begin_commit_ro_ns", func(int) error {
		if err := conn.BeginReadOnly(); err != nil {
			return err
		}
		return conn.Commit()
	}); err != nil {
		return err
	}
	if err := p.ns("txn.begin_commit_rw_ns", func(int) error {
		if err := conn.Begin(); err != nil {
			return err
		}
		return conn.Commit()
	}); err != nil {
		return err
	}

	// commit times the Commit after a one-row UPDATE, group-commit wait
	// included; goroutine g of two updates keys of its own parity.
	commit := func(c *dbdriver.Conn, g int) func(int) (time.Duration, error) {
		return func(i int) (time.Duration, error) {
			if err := c.Begin(); err != nil {
				return 0, err
			}
			if _, err := c.Exec(update, val, (2*i+g)%rows); err != nil {
				return 0, err
			}
			start := time.Now()
			err := c.Commit()
			return time.Since(start), err
		}
	}
	if err := p.us("txn.commit_write_us.c1", commit(conn, 0)); err != nil {
		return err
	}
	return p.pair("txn.commit_write_us.c2", func(g int) (func(int) (time.Duration, error), func()) {
		c := db.Connect()
		return commit(c, g), func() { c.Close() }
	})
}

// parse times parser.Parse over the statement texts the workload really
// issues (the statement cache's miss cost), collected by running every
// procedure a few times on a connection with an argument observer, each in a
// transaction that is rolled back.
func (p probes) parse(t *target, seed int64) error {
	conn := t.db.Connect()
	defer conn.Close()
	seen := map[string]bool{}
	var texts []string
	conn.SetArgObserver(func(sql string, _ []any) {
		if !seen[sql] {
			seen[sql] = true
			texts = append(texts, sql)
		}
	})
	rng := rand.New(rand.NewSource(seed))
	for _, proc := range t.bench.Procedures() {
		for i := 0; i < 20; i++ {
			if err := conn.Begin(); err != nil {
				return err
			}
			// A by-design abort or a conflict still shows the texts.
			_ = proc.Fn(conn, rng)
			if err := conn.Rollback(); err != nil {
				return err
			}
		}
	}
	conn.SetArgObserver(nil)
	if len(texts) == 0 {
		return fmt.Errorf("probe parser.parse_us: no statement texts seen")
	}
	return p.us("parser.parse_us", whole(func(i int) error {
		_, err := parser.Parse(texts[i%len(texts)])
		return err
	}))
}
