package main

import (
	"fmt"
	"math"

	"benchpress/internal/benchmarks/ycsb"
	"benchpress/internal/core"
	"benchpress/internal/dbdriver"
)

// check verifies the program's outputs after a run; any violation fails the
// command. counts are the committed transactions per type over every
// Manager that ran on t.
func check(w workload, t *target, errors int64, counts map[string]int) error {
	if errors != 0 {
		return fmt.Errorf("check %s: %d transactions ended in an error", w.name, errors)
	}
	if w.bench == "tpcc" {
		return checkTPCC(t.db)
	}
	return checkYCSB(w, t, counts)
}

func count(conn *dbdriver.Conn, sql string) (int64, error) {
	row, err := conn.QueryRow(sql)
	if err != nil {
		return 0, err
	}
	if row == nil {
		return 0, fmt.Errorf("%s: no row", sql)
	}
	return row[0].Int(), nil
}

// ycsbState is what must survive a restart: how many rows, and the highest
// key.
func ycsbState(db *dbdriver.DB) (rows, maxKey int64, err error) {
	conn := db.Connect()
	defer conn.Close()
	if rows, err = count(conn, "SELECT COUNT(*) FROM usertable"); err != nil {
		return 0, 0, err
	}
	maxKey, err = count(conn, "SELECT ycsb_key FROM usertable ORDER BY ycsb_key DESC LIMIT 1")
	return rows, maxKey, err
}

// checkYCSB: the table holds what the committed transactions say it should.
// Every committed Insert added a row; a committed Delete removed one unless
// its key was already gone. The engine's own row count must agree with SQL
// once dead versions are reclaimed. A disk workload is then closed and
// reopened from its directory (full recovery) and must come back with the
// same rows and highest key. The WAL sink is not fsynced today, so this
// proves replay of what reached the page cache, not of what reached a device.
func checkYCSB(w workload, t *target, counts map[string]int) error {
	loaded := int64(t.bench.(*ycsb.Benchmark).Records())
	rows, maxKey, err := ycsbState(t.db)
	if err != nil {
		return fmt.Errorf("check %s: %w", w.name, err)
	}
	hi := loaded + int64(counts["Insert"])
	lo := hi - int64(counts["Delete"])
	if rows < lo || rows > hi {
		return fmt.Errorf("check %s: COUNT(*) = %d outside [%d, %d] (loaded %d, %d inserts, %d deletes)",
			w.name, rows, lo, hi, loaded, counts["Insert"], counts["Delete"])
	}
	eng := t.db.Engine()
	eng.Vacuum()
	if n := int64(eng.RowCount()); n != rows {
		return fmt.Errorf("check %s: Engine.RowCount() = %d, COUNT(*) = %d", w.name, n, rows)
	}
	if t.dir == "" {
		return nil
	}
	p := t.db.Personality()
	t.db.Close()
	if t.db, err = dbdriver.OpenWith(p); err != nil {
		return fmt.Errorf("check %s: reopen %s: %w", w.name, t.dir, err)
	}
	if err := core.Prepare(t.bench, t.db, 1); err != nil {
		return fmt.Errorf("check %s: resume after reopen: %w", w.name, err)
	}
	rows2, maxKey2, err := ycsbState(t.db)
	if err != nil {
		return fmt.Errorf("check %s: after reopen: %w", w.name, err)
	}
	if rows2 != rows || maxKey2 != maxKey {
		return fmt.Errorf("check %s: after reopen %d rows, highest key %d; before %d rows, highest key %d",
			w.name, rows2, maxKey2, rows, maxKey)
	}
	return nil
}

// checkTPCC: TPC-C consistency condition 1, W_YTD = sum(D_YTD) for every
// warehouse. Payment updates both in one transaction, so any lost or partial
// update breaks it.
func checkTPCC(db *dbdriver.DB) error {
	conn := db.Connect()
	defer conn.Close()
	ws, err := conn.Query("SELECT w_id, w_ytd FROM warehouse")
	if err != nil {
		return fmt.Errorf("check tpcc: %w", err)
	}
	for _, wr := range ws.Rows {
		row, err := conn.QueryRow("SELECT SUM(d_ytd) FROM district WHERE d_w_id = ?", wr[0].Int())
		if err != nil {
			return fmt.Errorf("check tpcc: %w", err)
		}
		wytd, dytd := wr[1].Float(), row[0].Float()
		// Both sides add the same amounts in different orders.
		if math.Abs(wytd-dytd) > 1e-6*math.Abs(wytd) {
			return fmt.Errorf("check tpcc: warehouse %d: w_ytd = %.2f, sum(d_ytd) = %.2f", wr[0].Int(), wytd, dytd)
		}
	}
	return nil
}
