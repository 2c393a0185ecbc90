package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"benchpress/internal/sqldb/txn"
	"benchpress/internal/wal"
)

// TestWriterCountBalances checks the group-commit writer accounting: every
// transaction that becomes a writer announces itself to the log, and its
// commit record or its end hands the announcement back exactly once. The
// sessions race over three hot rows so that wait-die deaths (locking) and
// first-updater-wins conflicts (MVCC) abort writers mid-transaction; they
// also commit claims-only SELECT ... FOR UPDATE transactions, roll back
// explicitly, and one of them creates a table mid-run. The count is polled
// throughout and must never go below zero (a surplus withdrawal, which would
// seal batches early), and it must be exactly zero once every session is
// done (a leak would turn the complete-batch seal off for good).
func TestWriterCountBalances(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode txn.Mode
		disk bool
	}{
		{"golock", txn.Locking, false},
		{"gomvcc", txn.MVCC, false},
		{"golock-disk", txn.Locking, true},
		{"gomvcc-disk", txn.MVCC, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Name: tc.name, Mode: tc.mode,
				WALPolicy: wal.SyncGroup, GroupCommitInterval: 200 * time.Microsecond,
			}
			var e *Engine
			if tc.disk {
				cfg.DataDir, cfg.BufferPoolPages, cfg.CheckpointEvery = t.TempDir(), 16, 32
				var err error
				if e, err = OpenDisk(cfg); err != nil {
					t.Fatal(err)
				}
			} else {
				e = Open(cfg)
			}
			defer e.Close()
			log := e.WAL()

			s := e.Session()
			mustExec(t, s, `CREATE TABLE kv (k INT NOT NULL, v INT NOT NULL, PRIMARY KEY (k))`)
			for k := 0; k < 3; k++ {
				mustExec(t, s, "INSERT INTO kv (k, v) VALUES (?, ?)", k, 0)
			}
			if n := log.Outside(); n != 0 {
				t.Fatalf("outside = %d after the load", n)
			}

			stop := make(chan struct{})
			var minSeen int64 // read after polled closes
			polled := make(chan struct{})
			go func() {
				defer close(polled)
				for {
					if n := log.Outside(); n < minSeen {
						minSeen = n
					}
					select {
					case <-stop:
						return
					default:
						time.Sleep(5 * time.Microsecond)
					}
				}
			}()

			const workers, iters = 4, 120
			var conflicts atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					if err := writerMix(e.Session(), rand.New(rand.NewSource(int64(w))), w, iters, &conflicts); err != nil {
						t.Error(err)
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			<-polled

			if n := log.Outside(); n != 0 {
				t.Errorf("outside = %d after every session finished, want 0", n)
			}
			if minSeen < 0 {
				t.Errorf("outside was seen at %d", minSeen)
			}
			if conflicts.Load() == 0 {
				t.Errorf("no wait-die death or write conflict in %d transactions: the run exercised no abort", workers*iters)
			}
			t.Logf("%d aborted by conflicts; seals: %d complete, %d quiet, %d deadline, %d flush",
				conflicts.Load(), log.CompleteSeals(), log.QuietSeals(), log.DeadlineSeals(), log.FlushSeals())
		})
	}
}

// writerMix runs one session's share of TestWriterCountBalances. Conflicts
// abort the statement's transaction and are counted, not failed.
func writerMix(s *Session, rng *rand.Rand, w, iters int, conflicts *atomic.Int64) error {
	conflict := func(err error) bool {
		if errors.Is(err, txn.ErrDeadlock) || errors.Is(err, txn.ErrWriteConflict) {
			conflicts.Add(1)
			return true
		}
		return false
	}
	// explicit runs stmts in one explicit transaction and ends it with
	// COMMIT, or ROLLBACK when rollback is set or a statement conflicted.
	explicit := func(rollback bool, stmts ...string) error {
		if err := s.Begin(); err != nil {
			return err
		}
		for _, q := range stmts {
			if _, err := s.Exec(q); err != nil {
				if !conflict(err) {
					return err
				}
				return s.Rollback()
			}
		}
		if rollback {
			return s.Rollback()
		}
		if err := s.Commit(); err != nil && !conflict(err) {
			return err
		}
		return nil
	}
	for i := 0; i < iters; i++ {
		a, b := rng.Intn(3), rng.Intn(3)
		var err error
		switch op := rng.Intn(6); {
		case w == 0 && i == iters/2:
			_, err = s.Exec("CREATE TABLE mid_run (id INT NOT NULL, PRIMARY KEY (id))")
		case op <= 1:
			err = explicit(false,
				fmt.Sprintf("UPDATE kv SET v = v + 1 WHERE k = %d", a),
				fmt.Sprintf("UPDATE kv SET v = v + 1 WHERE k = %d", b))
		case op == 2:
			err = explicit(true, fmt.Sprintf("UPDATE kv SET v = v + 1 WHERE k = %d", a))
		case op == 3:
			err = explicit(false, fmt.Sprintf("SELECT v FROM kv WHERE k = %d FOR UPDATE", a))
		case op == 4:
			if _, err = s.Exec("UPDATE kv SET v = v + 1 WHERE k = ?", a); err != nil && conflict(err) {
				err = nil
			}
		default:
			err = explicit(false,
				fmt.Sprintf("SELECT v FROM kv WHERE k = %d FOR UPDATE", a),
				fmt.Sprintf("UPDATE kv SET v = v + 1 WHERE k = %d", b))
		}
		if err != nil {
			return fmt.Errorf("session %d, transaction %d: %w", w, i, err)
		}
	}
	return nil
}
