package sqldb

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"testing"
	"time"

	"benchpress/internal/sqldb/txn"
	"benchpress/internal/sqlval"
)

// TestUniqueIndexAllowsNulls: a NULL never equals another NULL, so a UNIQUE
// secondary index admits any number of rows with a NULL indexed column, by
// INSERT and by UPDATE, while it still rejects a second non-NULL value.
func TestUniqueIndexAllowsNulls(t *testing.T) {
	for _, mode := range []txn.Mode{txn.Serial, txn.Locking, txn.MVCC} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEngine(t, mode)
			s := e.Session()
			mustExec(t, s, "CREATE TABLE t (id INT NOT NULL, u INT, a INT, b VARCHAR(8), PRIMARY KEY (id))")
			mustExec(t, s, "CREATE UNIQUE INDEX idx_u ON t (u)")
			mustExec(t, s, "CREATE UNIQUE INDEX idx_ab ON t (a, b)")
			mustExec(t, s, "INSERT INTO t (id, u, a, b) VALUES (1, NULL, 1, NULL)")
			mustExec(t, s, "INSERT INTO t (id, u, a, b) VALUES (2, NULL, 1, NULL)")
			mustExec(t, s, "INSERT INTO t (id, u, a, b) VALUES (3, 5, NULL, 'x')")
			mustExec(t, s, "INSERT INTO t (id, u, a, b) VALUES (4, 6, NULL, 'x')")
			if _, err := s.Exec("INSERT INTO t (id, u) VALUES (5, 5)"); err == nil {
				t.Fatal("a second u = 5 was accepted")
			}
			if _, err := s.Exec("INSERT INTO t (id, a, b) VALUES (6, 2, 'y')"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Exec("INSERT INTO t (id, a, b) VALUES (7, 2, 'y')"); err == nil {
				t.Fatal("a second (a, b) = (2, 'y') was accepted")
			}
			mustExec(t, s, "UPDATE t SET u = NULL WHERE id = 3")
			mustExec(t, s, "UPDATE t SET u = 5 WHERE id = 4")
			res, err := s.Query("SELECT COUNT(*) FROM t WHERE u IS NULL")
			if err != nil {
				t.Fatal(err)
			}
			if n := res.Rows[0][0].Int(); n != 4 {
				t.Fatalf("%d rows with u NULL, want 4", n)
			}
		})
	}
}

// TestIndexBoundsAcrossKinds: a search value of another kind than its
// column selects through the index exactly the rows a full scan selects,
// whether it converts exactly to the column's kind ('5', 5.0) or widens the
// scan to the enclosing prefix (5.5, '1a', 2^53 as a float).
func TestIndexBoundsAcrossKinds(t *testing.T) {
	for _, mode := range []txn.Mode{txn.Serial, txn.Locking, txn.MVCC} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEngine(t, mode)
			s := e.Session()
			for _, name := range []string{"ix", "scan"} {
				mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (id INT NOT NULL, u INT, f DOUBLE, name VARCHAR(8))", name))
			}
			mustExec(t, s, "CREATE UNIQUE INDEX ix_id ON ix (id)")
			mustExec(t, s, "CREATE INDEX ix_u ON ix (u)")
			mustExec(t, s, "CREATE INDEX ix_f ON ix (f)")
			mustExec(t, s, "CREATE INDEX ix_name ON ix (name)")
			rows := [][]any{
				{1, 4, -1.5, "1a"}, {2, 5, 0.0, "5"}, {3, 6, 5.5, "5.0"}, {4, nil, nil, nil},
				{5, 1 << 53, 1e300, "abc"}, {6, 1<<53 + 1, math.Inf(1), ""}, {7, -7, math.Inf(-1), "10"},
			}
			for _, name := range []string{"ix", "scan"} {
				for _, r := range rows {
					mustExec(t, s, fmt.Sprintf("INSERT INTO %s (id, u, f, name) VALUES (?, ?, ?, ?)", name), r...)
				}
			}
			preds := []struct {
				where string
				arg   any
			}{
				{"u < ?", 5.5}, {"u = ?", "5"}, {"id >= ?", "2"}, {"u = ?", 5.0}, {"u > ?", "1a"},
				{"u = ?", float64(1 << 53)}, {"u <= ?", "12.0"}, {"f = ?", 0}, {"f > ?", "0.5"},
				{"f < ?", "x"}, {"f = ?", time.Unix(0, 0)}, {"name = ?", 5}, {"name > ?", "5"},
				{"name < ?", 10.0}, {"id = ?", nil}, {"u = ?", math.Inf(1)},
			}
			for _, p := range preds {
				got := queryRows(t, s, "SELECT id FROM ix WHERE "+p.where, p.arg)
				want := queryRows(t, s, "SELECT id FROM scan WHERE "+p.where, p.arg)
				if got != want {
					t.Errorf("WHERE %s [%v]: index %s, scan %s", p.where, p.arg, got, want)
				}
			}
		})
	}
}

// queryRows runs a query and renders its rows, sorted, for comparison.
func queryRows(t *testing.T, s *Session, sql string, args ...any) string {
	t.Helper()
	res, err := s.Query(sql, args...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

// TestGroupingFollowsKeyEncoding pins what GROUP BY, DISTINCT and
// COUNT(DISTINCT) put together now that they hash the index-key encoding:
// a Time and an Int of equal value (Compare calls them equal) and -0.0 and
// 0.0 group together; a Float and an Int of equal value stay apart, as do
// text and a number.
func TestGroupingFollowsKeyEncoding(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	mustExec(t, s, "CREATE TABLE g (id INT NOT NULL, PRIMARY KEY (id))")
	for i := 1; i <= 2; i++ {
		mustExec(t, s, "INSERT INTO g (id) VALUES (?)", i)
	}
	pick := "CASE WHEN id = 1 THEN ? ELSE ? END"
	cases := []struct {
		a, b any
		n    int64
	}{
		{time.Unix(0, 5), 5, 1},
		{math.Copysign(0, -1), 0.0, 1},
		{5.0, 5, 2},
		{"5", 5, 2},
		{nil, nil, 1},
	}
	for _, c := range cases {
		query := func(sql string) [][]sqlval.Value {
			t.Helper()
			res, err := s.Query(sql, c.a, c.b)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			return res.Rows
		}
		groups := int64(len(query("SELECT COUNT(*) FROM g GROUP BY " + pick)))
		distinct := int64(len(query("SELECT DISTINCT " + pick + " FROM g")))
		countDistinct := query("SELECT COUNT(DISTINCT " + pick + ") FROM g")[0][0].Int()
		wantCount := c.n
		if c.a == nil {
			wantCount = 0 // COUNT(DISTINCT) skips NULLs
		}
		if groups != c.n || distinct != c.n || countDistinct != wantCount {
			t.Errorf("%v and %v: %d groups, %d distinct rows, COUNT(DISTINCT) %d; want %d, %d, %d",
				c.a, c.b, groups, distinct, countDistinct, c.n, c.n, wantCount)
		}
	}
}

// TestAggregatesOverTimestamps: only SUM and AVG add their arguments up, so
// COUNT, MIN, MAX and COUNT(DISTINCT) work on a kind that "+" rejects.
func TestAggregatesOverTimestamps(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	mustExec(t, s, "CREATE TABLE ev (id INT NOT NULL, at TIMESTAMP, PRIMARY KEY (id))")
	t1, t2 := time.Unix(1000, 0), time.Unix(2000, 0)
	for i, at := range []any{t2, t1, t2, nil} {
		mustExec(t, s, "INSERT INTO ev (id, at) VALUES (?, ?)", i, at)
	}
	res, err := s.Query("SELECT COUNT(at), MIN(at), MAX(at), COUNT(DISTINCT at), COUNT(*) FROM ev")
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].Int() != 3 || !row[1].Time().Equal(t1) || !row[2].Time().Equal(t2) ||
		row[3].Int() != 2 || row[4].Int() != 4 {
		t.Fatalf("COUNT, MIN, MAX, COUNT(DISTINCT), COUNT(*) = %v", row)
	}
	if _, err := s.Query("SELECT SUM(at) FROM ev"); err == nil {
		t.Fatal("SUM over TIMESTAMP values succeeded")
	}
}

// TestIndexScanHeap: index keys live in pointer-free node arenas, so the
// heap the garbage collector must scan grows by a few bytes per index entry
// (node headers and child pointers), not by a key slice of pointer-bearing
// values per entry. Two tables get the same 20 000 rows; one has a 4-int
// primary key and a text secondary index, the other no index, and the
// difference in scannable heap is the indexes' share.
func TestIndexScanHeap(t *testing.T) {
	const rows = 20000
	const budget = 16 // scannable bytes per index entry
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	scan := func() uint64 {
		runtime.GC()
		runtime.GC()
		m := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
		metrics.Read(m)
		return m[0].Value.Uint64()
	}
	load := func(table string, indexed bool) uint64 {
		pk := ""
		if indexed {
			pk = ", PRIMARY KEY (w, d, o, n)"
		}
		mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (w INT NOT NULL, d INT NOT NULL, o INT NOT NULL, n INT NOT NULL, name VARCHAR(16)%s)", table, pk))
		if indexed {
			mustExec(t, s, fmt.Sprintf("CREATE INDEX %s_name ON %s (name)", table, table))
		}
		ins, err := s.Prepare(fmt.Sprintf("INSERT INTO %s (w, d, o, n, name) VALUES (?, ?, ?, ?, ?)", table))
		if err != nil {
			t.Fatal(err)
		}
		before := scan()
		for i := 0; i < rows; i++ {
			if _, err := ins.Exec(1, i%10, i/100, i%100/10, fmt.Sprintf("NAME%05d", i%3000)); err != nil {
				t.Fatal(err)
			}
		}
		return scan() - before
	}
	bare := load("bare", false)
	keyed := load("keyed", true)
	perEntry := (float64(keyed) - float64(bare)) / (2 * rows)
	t.Logf("scannable heap: %d B without indexes, %d B with; %.1f B per index entry", bare, keyed, perEntry)
	if perEntry > budget {
		t.Fatalf("indexes add %.1f scannable bytes per entry, budget %d", perEntry, budget)
	}
}
