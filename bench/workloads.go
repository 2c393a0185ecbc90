package main

import (
	"fmt"
	"os"
	"time"

	"benchpress/internal/benchmarks/tpcc"
	"benchpress/internal/benchmarks/ycsb"
	"benchpress/internal/core"
	"benchpress/internal/dbdriver"
	"benchpress/internal/wal"
)

// terminals is fixed in the workload definitions: the sandbox has two CPUs,
// and a number that moved with the host would make runs incomparable.
const terminals = 2

// maxRetries is high enough that a conflict ends in a commit, not an abort:
// the workloads are chosen so that no operation fails, and the cost of a
// conflict shows as txn.retries and in the latency tail. On TPC-C's one
// warehouse a retried Payment meets the other terminal's Payment again one
// time in ten; core's default of three retries would abort a few in ten
// thousand.
const maxRetries = 16

// workload is one frozen benchmark definition. rateLo and rateHi are absolute
// targets measured once on the seed commit (rateHi <= 0.8 x sat_tps, rateLo
// = rateHi/2) and never recomputed at run time, so a later change is judged
// at the load the baseline was.
type workload struct {
	name       string
	bench      string // "ycsb" or "tpcc"
	scale      float64
	smokeScale float64
	db         string // dbdriver personality
	poolPages  int    // > 0: disk-resident with this many buffer-pool frames
	// asyncWAL opens the engine with wal.SyncAsync: a commit appends its
	// record and does not wait for the group flush (README, "Departures").
	asyncWAL   bool
	mix        []float64
	rateLo     float64
	rateHi     float64
	p99LimitUS float64
	setupReps  int
}

// workloads are the handles later issues name. The reasons live in
// BENCHMARK.json and bench/README.md.
var workloads = []workload{
	{
		name: "ycsb_read_ram", bench: "ycsb", scale: 5, smokeScale: 0.1, db: "gomvcc",
		mix: []float64{95, 0, 5, 0, 0, 0}, rateLo: 40000, rateHi: 80000,
		p99LimitUS: 50000, setupReps: 9,
	},
	{
		name: "ycsb_write_ram", bench: "ycsb", scale: 5, smokeScale: 0.1, db: "golock",
		mix: []float64{5, 15, 0, 60, 5, 15}, rateLo: 8000, rateHi: 16000,
		p99LimitUS: 50000, setupReps: 9,
	},
	{
		name: "ycsb_disk", bench: "ycsb", scale: 1, smokeScale: 0.1, db: "golock", poolPages: 64,
		mix: []float64{5, 15, 0, 60, 5, 15}, rateLo: 400, rateHi: 800,
		p99LimitUS: 20000, setupReps: 9,
	},
	{
		name: "tpcc_mixed", bench: "tpcc", scale: 0.3, smokeScale: 0.05, db: "gomvcc", asyncWAL: true,
		rateLo: 500, rateHi: 1000,
		p99LimitUS: 50000, setupReps: 5,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) newBenchmark(smoke bool) core.Benchmark {
	scale := w.scale
	if smoke {
		scale = w.smokeScale
	}
	if w.bench == "tpcc" {
		return tpcc.New(scale)
	}
	return ycsb.New(scale)
}

// target is one opened and loaded database.
type target struct {
	db    *dbdriver.DB
	bench core.Benchmark
	dir   string // data directory of a disk-resident target, else ""
}

// close releases the engine and removes a disk target's files.
func (t *target) close() {
	t.db.Close()
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
}

// open opens a fresh engine of the workload's personality. A disk workload
// gets a fresh directory under os.TempDir().
func (w workload) open() (*dbdriver.DB, string, error) {
	p, err := dbdriver.Lookup(w.db)
	if err != nil {
		return nil, "", err
	}
	dir := ""
	if w.poolPages > 0 {
		if dir, err = os.MkdirTemp("", "benchpress-"+w.name+"-"); err != nil {
			return nil, "", err
		}
		p.DataDir, p.BufferPoolPages = dir, w.poolPages
	}
	if w.asyncWAL {
		p.WALPolicy = wal.SyncAsync
	}
	db, err := dbdriver.OpenWith(p)
	if err != nil {
		if dir != "" {
			os.RemoveAll(dir)
		}
		return nil, "", fmt.Errorf("open %s: %w", w.db, err)
	}
	return db, dir, nil
}

// setup is the timed set-up step: open the engine, create the schema and
// load the data.
func (w workload) setup(seed int64, smoke bool) (*target, time.Duration, error) {
	start := time.Now()
	db, dir, err := w.open()
	if err != nil {
		return nil, 0, err
	}
	t := &target{db: db, bench: w.newBenchmark(smoke), dir: dir}
	if err := core.Prepare(t.bench, db, seed); err != nil {
		t.close()
		return nil, 0, err
	}
	return t, time.Since(start), nil
}
