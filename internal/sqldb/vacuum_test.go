package sqldb

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"benchpress/internal/sqldb/storage"
	"benchpress/internal/sqldb/txn"
	"benchpress/internal/sqlval"
)

// TestVacuumBacklogComplete proves the write-set-driven vacuum misses
// nothing: sessions churn two indexed tables with updates, deletes,
// re-inserts of deleted keys, rollbacks, claims-only SELECT ... FOR UPDATE
// transactions and a CREATE TABLE mid-run, racing the background vacuum.
// Once the churn stops, one drain must leave no row that a full sweep with
// the vacuum's own classification would still reclaim or prune, and the
// limbo of every table must empty once the horizon passes it — including
// tables that see no write after the drain. Run it under -race.
func TestVacuumBacklogComplete(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode txn.Mode
		disk bool
	}{
		{"golock", txn.Locking, false},
		{"gomvcc", txn.MVCC, false},
		{"goserial", txn.Serial, false},
		{"golock-disk", txn.Locking, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Name: tc.name, Mode: tc.mode, VacuumInterval: time.Millisecond}
			var e *Engine
			if tc.disk {
				cfg.DataDir, cfg.BufferPoolPages, cfg.CheckpointEvery = t.TempDir(), 16, 64
				var err error
				if e, err = OpenDisk(cfg); err != nil {
					t.Fatal(err)
				}
			} else {
				e = Open(cfg)
			}
			defer e.Close()
			churnForVacuum(t, e)
			checkVacuumComplete(t, e)
		})
	}
}

const vacChurnKeys = 48

func churnForVacuum(t *testing.T, e *Engine) {
	t.Helper()
	s := e.Session()
	mustExec(t, s, `CREATE TABLE kv (k INT NOT NULL, v INT NOT NULL, g INT NOT NULL, PRIMARY KEY (k))`)
	mustExec(t, s, `CREATE INDEX kv_g ON kv (g)`)
	mustExec(t, s, `CREATE TABLE bump (k INT NOT NULL, v INT NOT NULL, PRIMARY KEY (k))`)
	mustExec(t, s, "INSERT INTO bump (k, v) VALUES (0, 0)")
	for k := 0; k < vacChurnKeys; k++ {
		mustExec(t, s, "INSERT INTO kv (k, v, g) VALUES (?, ?, ?)", k, 0, k%5)
	}

	iters := 1500
	if testing.Short() {
		iters = 300
	}
	var created sync.WaitGroup
	created.Add(1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		src := rand.Int63()
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(src))
			s := e.Session()
			if w == 0 {
				// DDL mid-run: the new table's writes join the backlog.
				_, err := s.Exec(`CREATE TABLE kv2 (k INT NOT NULL, v INT NOT NULL, PRIMARY KEY (k))`)
				created.Done()
				if err != nil {
					t.Error(err)
					return
				}
			} else {
				created.Wait()
			}
			for i := 0; i < iters; i++ {
				vacChurnStep(s, r)
			}
		}(w)
	}
	wg.Wait()
}

// vacChurnStep runs one random transaction; errors (wait-die deaths,
// write conflicts, duplicate keys) are expected and end it with a rollback.
func vacChurnStep(s *Session, r *rand.Rand) {
	k := r.Intn(vacChurnKeys)
	run := func(stmts func() error, commit bool) {
		if s.Begin() != nil {
			return
		}
		if err := stmts(); err != nil || !commit {
			s.Rollback()
			return
		}
		s.Commit()
	}
	switch r.Intn(7) {
	case 0, 1: // update, moving the row within the secondary index
		run(func() error {
			_, err := s.Exec("UPDATE kv SET v = v + 1, g = ? WHERE k = ?", r.Intn(5), k)
			return err
		}, true)
	case 2: // delete, then re-insert the key in a later transaction
		run(func() error {
			_, err := s.Exec("DELETE FROM kv WHERE k = ?", k)
			return err
		}, true)
		run(func() error {
			_, err := s.Exec("INSERT INTO kv (k, v, g) VALUES (?, ?, ?)", k, 0, k%5)
			return err
		}, true)
	case 3: // writes that roll back
		run(func() error {
			if _, err := s.Exec("UPDATE kv SET v = v + 1 WHERE k = ?", k); err != nil {
				return err
			}
			_, err := s.Exec("DELETE FROM kv WHERE k = ?", (k+1)%vacChurnKeys)
			return err
		}, false)
	case 4: // claims only
		run(func() error {
			_, err := s.Exec("SELECT v FROM kv WHERE k = ? FOR UPDATE", k)
			return err
		}, true)
	case 5: // two writes to one row in one transaction, then a delete
		run(func() error {
			if _, err := s.Exec("UPDATE kv SET v = v + 1 WHERE k = ?", k); err != nil {
				return err
			}
			if _, err := s.Exec("UPDATE kv SET g = ? WHERE k = ?", r.Intn(5), k); err != nil {
				return err
			}
			if r.Intn(2) == 0 {
				_, err := s.Exec("DELETE FROM kv WHERE k = ?", k)
				return err
			}
			return nil
		}, true)
	case 6: // the table created mid-run: insert, update or delete
		switch r.Intn(3) {
		case 0:
			s.Exec("INSERT INTO kv2 (k, v) VALUES (?, ?)", k, 0)
		case 1:
			s.Exec("UPDATE kv2 SET v = v + 1 WHERE k = ?", k)
		default:
			s.Exec("DELETE FROM kv2 WHERE k = ?", k)
		}
	}
}

func checkVacuumComplete(t *testing.T, e *Engine) {
	t.Helper()
	mgr := e.TxnManager()
	e.Vacuum()
	if n := mgr.VacuumBacklog(); n != 0 {
		t.Errorf("backlog holds %d entries after a quiesced drain", n)
	}
	horizon := mgr.Horizon()
	tables := map[string]*storage.Table{}
	for _, name := range []string{"kv", "kv2", "bump"} {
		tbl, err := e.StorageTable(name)
		if err != nil {
			t.Fatal(err)
		}
		tables[name] = tbl
		if dead, prunable := tbl.Unreclaimed(horizon); dead != 0 || prunable != 0 {
			t.Errorf("%s: a full sweep after the drain finds %d dead rows and %d prunable tails", name, dead, prunable)
		}
	}
	if mgr.VacuumReclaimed() == 0 || mgr.VacuumPruned() == 0 {
		t.Errorf("churn left nothing to vacuum: reclaimed %d, pruned %d", mgr.VacuumReclaimed(), mgr.VacuumPruned())
	}

	// The drain's limbo batches are stamped with the clock at unlink; a
	// commit to bump moves the horizon past them, and kv and kv2, which see
	// no write after the drain, must be reaped all the same.
	s := e.Session()
	mustExec(t, s, "UPDATE bump SET v = v + 1 WHERE k = 0")
	e.Vacuum()
	for name, tbl := range tables {
		if n := tbl.LimboSlots(); n != 0 {
			t.Errorf("%s: %d slots still in limbo after the horizon passed", name, n)
		}
	}
}

// TestIndexKeysDoNotPinRecords checks the aliasing rule of record storage:
// index keys are decoded from row records, and a stored key that still
// aliased its record would keep that whole image alive after vacuum has
// dropped its version. Each of 100 rows with a text-indexed column and a
// 4 KiB pad takes 1 000 updates to a non-indexed column, with vacuum passes
// in between; once vacuum has pruned every chain, the live heap may have
// grown by less than two records per row — one live image each plus its
// slot, version and index entries. A key pinning the row's first image
// would make that two records per row and more.
func TestIndexKeysDoNotPinRecords(t *testing.T) {
	const rows, updates = 100, 1000
	e := Open(Config{Name: "retention", Mode: txn.MVCC})
	defer e.Close()
	s := e.Session()
	mustExec(t, s, `CREATE TABLE ret (id INT NOT NULL, name VARCHAR(32) NOT NULL, n INT NOT NULL, pad VARCHAR(4096), PRIMARY KEY (id))`)
	mustExec(t, s, `CREATE INDEX ret_name ON ret (name)`)
	ins, err := s.Prepare("INSERT INTO ret (id, name, n, pad) VALUES (?, ?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	upd, err := s.Prepare("UPDATE ret SET n = ? WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	heapLive := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // a second cycle empties the sync.Pool victim caches
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	base := heapLive()
	for i := 0; i < rows; i++ {
		if _, err := ins.Exec(i, fmt.Sprintf("name-%03d", i), 0, strings.Repeat(string(rune('a'+i%26)), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	for u := 1; u <= updates; u++ {
		for i := 0; i < rows; i++ {
			if _, err := upd.Exec(u, i); err != nil {
				t.Fatal(err)
			}
		}
		e.Vacuum()
	}
	e.Vacuum()
	tbl, err := e.StorageTable("ret")
	if err != nil {
		t.Fatal(err)
	}
	if dead, prunable := tbl.Unreclaimed(e.TxnManager().Horizon()); dead != 0 || prunable != 0 {
		t.Fatalf("vacuum left %d dead and %d prunable rows", dead, prunable)
	}
	id, _ := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(0)))
	row, _ := tbl.Row(id)
	record := uint64(len(row.Latest().Record()))
	growth := int64(heapLive() - base)
	t.Logf("heap growth %d B for %d rows: %.2f records of %d B per row", growth, rows, float64(growth)/float64(rows*record), record)
	if limit := int64(2 * rows * record); growth > limit {
		t.Fatalf("heap grew %d B for %d rows of %d-B records, limit %d: superseded records are still reachable", growth, rows, record, limit)
	}
	runtime.KeepAlive(ins)
	runtime.KeepAlive(upd)
}
