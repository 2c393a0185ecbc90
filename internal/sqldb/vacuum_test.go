package sqldb

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"benchpress/internal/sqldb/storage"
	"benchpress/internal/sqldb/txn"
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
