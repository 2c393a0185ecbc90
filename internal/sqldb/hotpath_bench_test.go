package sqldb

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"benchpress/internal/sqldb/storage/heap"
	"benchpress/internal/sqldb/txn"
	"benchpress/internal/sqlval"
)

// benchEngine builds an engine with a seeded table for the hot-path
// microbenchmarks: 1000 rows, integer primary key, secondary index on grp
// (10 rows per group value).
func benchEngine(b *testing.B) *Engine {
	b.Helper()
	e := Open(Config{Mode: txn.MVCC})
	s := e.Session()
	steps := []string{
		"CREATE TABLE bench (id INT NOT NULL, grp INT, val INT, PRIMARY KEY (id))",
		"CREATE INDEX bench_grp ON bench (grp)",
	}
	for _, sql := range steps {
		if _, err := s.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		if _, err := s.Exec("INSERT INTO bench (id, grp, val) VALUES (?, ?, ?)", i, i/10, i*7); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

// BenchmarkPreparedPointRead is the canonical OLTP hot path: an autocommitted
// prepared primary-key lookup. Allocations here are paid on every transaction
// of every point-read workload.
func BenchmarkPreparedPointRead(b *testing.B) {
	e := benchEngine(b)
	st, err := e.Session().Prepare("SELECT val FROM bench WHERE id = ?")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Exec(i % 1000)
		if err != nil || len(res.Rows) != 1 {
			b.Fatalf("rows=%v err=%v", res, err)
		}
	}
}

// BenchmarkPreparedRangeScan reads one 10-row group through the secondary
// index, exercising scan-bound scratch reuse and the Result.Rows capacity
// hint.
func BenchmarkPreparedRangeScan(b *testing.B) {
	e := benchEngine(b)
	st, err := e.Session().Prepare("SELECT id, val FROM bench WHERE grp = ?")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Exec(i % 100)
		if err != nil || len(res.Rows) != 10 {
			b.Fatalf("rows=%d err=%v", len(res.Rows), err)
		}
	}
}

// BenchmarkPreparedInsert appends fresh rows through a prepared INSERT; the
// row data slice itself must be allocated (storage retains it), everything
// else should be reused.
func BenchmarkPreparedInsert(b *testing.B) {
	e := benchEngine(b)
	st, err := e.Session().Prepare("INSERT INTO bench (id, grp, val) VALUES (?, ?, ?)")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := 1000 + i
		if _, err := st.Exec(id, id/10, id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedUpdate rewrites one row by primary key, exercising
// collectMatches (pooled env, no defensive image copy) plus the write path.
func BenchmarkPreparedUpdate(b *testing.B) {
	e := benchEngine(b)
	st, err := e.Session().Prepare("UPDATE bench SET val = ? WHERE id = ?")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Exec(i, i%1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecPointRead runs the same point read through Session.Exec with
// SQL text, measuring the merged statement cache's single read-lock hit on
// top of the prepared path.
func BenchmarkExecPointRead(b *testing.B) {
	e := benchEngine(b)
	s := e.Session()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec("SELECT val FROM bench WHERE id = ?", i%1000)
		if err != nil || len(res.Rows) != 1 {
			b.Fatalf("rows=%v err=%v", res, err)
		}
	}
}

// TestPreparedPointReadAllocSmoke is the allocation regression gate wired
// into scripts/verify.sh: a prepared autocommitted point read must stay
// within a small fixed allocation budget. The bound leaves 2x headroom over
// the measured 4 allocs/op so it only trips on structural regressions like a
// lost pool or a per-row buffer creeping back in.
func TestPreparedPointReadAllocSmoke(t *testing.T) {
	e := Open(Config{Mode: txn.MVCC})
	s := e.Session()
	if _, err := s.Exec("CREATE TABLE sm (id INT NOT NULL, v INT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.Exec("INSERT INTO sm (id, v) VALUES (?, ?)", i, i); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Prepare("SELECT v FROM sm WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	var i int
	avg := testing.AllocsPerRun(200, func() {
		res, err := st.Exec(i % 100)
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("rows=%v err=%v", res, err)
		}
		i++
	})
	const budget = 8
	if avg > budget {
		t.Fatalf("prepared point read allocates %.1f objects/op, budget %d", avg, budget)
	}
	if testing.Verbose() {
		fmt.Printf("prepared point read: %.1f allocs/op (budget %d)\n", avg, budget)
	}
}

// TestWritingTxnAllocSmoke is the allocation gate for a multi-statement
// writing transaction, TPC-C's shape, wired into scripts/verify.sh: on a
// prepared MVCC session, BEGIN, five SELECT ... FOR UPDATE point reads and
// five updates, COMMIT. A finished transaction hands its write set and
// claim map back to the manager for the next one, so neither is re-grown
// per transaction; the budget leaves headroom over the measured count so it
// trips when that reuse is lost or a per-statement buffer creeps back in.
func TestWritingTxnAllocSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	e := Open(Config{Mode: txn.MVCC})
	s := e.Session()
	if _, err := s.Exec("CREATE TABLE sm (id INT NOT NULL, v INT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.Exec("INSERT INTO sm (id, v) VALUES (?, ?)", i, i); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := s.Prepare("SELECT v FROM sm WHERE id = ? FOR UPDATE")
	if err != nil {
		t.Fatal(err)
	}
	upd, err := s.Prepare("UPDATE sm SET v = ? WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	var i int
	body := func() {
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 5; j++ {
			id := (i*5 + j) % 100
			if res, err := sel.Exec(id); err != nil || len(res.Rows) != 1 {
				t.Fatalf("rows=%v err=%v", res, err)
			}
			if _, err := upd.Exec(i, id); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		i++
	}
	body() // warm the plans, the executor pool and the write-set pool
	avg := testing.AllocsPerRun(200, body)
	const budget = 40
	if avg > budget {
		t.Fatalf("5-read 5-update transaction allocates %.1f objects/op, budget %d", avg, budget)
	}
	if testing.Verbose() {
		fmt.Printf("writing transaction: %.1f allocs/op (budget %d)\n", avg, budget)
	}
}

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

// TestPreparedRangeScanAllocSmoke is the bytes gate beside the point-read
// one, wired into scripts/verify.sh: a prepared 100-row SELECT * over an
// 11-column YCSB-shaped table may allocate at most 1.25x the result's own
// values (100 rows x 11 columns x 32 B). The result rows are the one
// allocation a scan cannot avoid, so this trips when sqlval.Value widens
// (EXPERIMENTS.md E-VALUE) or a per-row copy creeps into the scan path.
func TestPreparedRangeScanAllocSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	const rows, cols = 100, 11
	e := Open(Config{Mode: txn.MVCC})
	s := e.Session()
	ins := ycsbTable(t, s)
	args := make([]any, cols)
	for k := 0; k < 4*rows; k++ {
		args[0] = k
		for f := 1; f < cols; f++ {
			args[f] = strings.Repeat(string(rune('a'+f)), 100)
		}
		if _, err := s.Exec(ins, args...); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Prepare("SELECT * FROM usertable WHERE ycsb_key >= ? AND ycsb_key <= ? LIMIT 100")
	if err != nil {
		t.Fatal(err)
	}
	var i int
	scan := func() {
		lo := (i % 3) * rows
		res, err := st.Exec(lo, lo+rows-1)
		if err != nil || len(res.Rows) != rows {
			t.Fatalf("rows=%v err=%v", res, err)
		}
		i++
	}
	scan() // warm the plan and the executor pool
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		scan()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	const budget = 1.25 * rows * cols * 32
	if perOp > budget {
		t.Fatalf("prepared %d-row scan allocates %.0f B/op, budget %.0f", rows, perOp, budget)
	}
	if testing.Verbose() {
		fmt.Printf("prepared range scan: %.0f B/op (budget %.0f)\n", perOp, budget)
	}
}

// ycsbTable creates an 11-column YCSB usertable (an INT key and ten
// VARCHAR(100) fields) and returns its INSERT statement text.
func ycsbTable(t *testing.T, s *Session) string {
	t.Helper()
	const cols = 11
	ddl := "CREATE TABLE usertable (ycsb_key INT NOT NULL"
	ins := "INSERT INTO usertable (ycsb_key"
	for f := 1; f < cols; f++ {
		ddl += fmt.Sprintf(", field%d VARCHAR(100)", f)
		ins += fmt.Sprintf(", field%d", f)
	}
	if _, err := s.Exec(ddl + ", PRIMARY KEY (ycsb_key))"); err != nil {
		t.Fatal(err)
	}
	return ins + ") VALUES (?" + strings.Repeat(", ?", cols-1) + ")"
}

// TestRowImageOneAlloc pins the row representation: a YCSB-shaped row image
// (an INT key and ten 75-byte fields, the mean of YCSB's 50..100-byte
// strings) is one pointer-free record, built in exactly one allocation that
// Go's 896-byte size class holds, and reading it back into a reused buffer
// allocates nothing — text decodes as substrings of the record.
func TestRowImageOneAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	const sizeClass = 896
	e := Open(Config{Mode: txn.MVCC})
	s := e.Session()
	args := []any{7}
	for f := 1; f < 11; f++ {
		args = append(args, strings.Repeat(string(rune('a'+f)), 75))
	}
	if _, err := s.Exec(ycsbTable(t, s), args...); err != nil {
		t.Fatal(err)
	}
	tbl, err := e.StorageTable("usertable")
	if err != nil {
		t.Fatal(err)
	}
	id, ok := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(7)))
	if !ok {
		t.Fatal("inserted row not found")
	}
	row, _ := tbl.Row(id)
	v := row.Latest()
	if n := len(v.Record()); n > sizeClass {
		t.Fatalf("YCSB-shaped record is %d B, over the %d-B size class", n, sizeClass)
	}

	vals := v.DecodeInto(nil)
	if got := testing.AllocsPerRun(100, func() { _ = heap.EncodeRecord(vals) }); got != 1 {
		t.Fatalf("encoding a row image takes %.1f allocations, want 1", got)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		_ = heap.EncodeRecord(vals)
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > sizeClass {
		t.Fatalf("a row image allocates %d B, want at most %d", perOp, sizeClass)
	}
	scratch := make([]sqlval.Value, 0, len(vals))
	if got := testing.AllocsPerRun(100, func() { scratch = v.DecodeInto(scratch) }); got != 0 {
		t.Fatalf("decoding a row image into scratch takes %.1f allocations, want 0", got)
	}
	if testing.Verbose() {
		fmt.Printf("row image: %d B record, 1 allocation\n", len(v.Record()))
	}
}
