package sqldb

import (
	"bytes"
	"strings"
	"testing"

	"benchpress/internal/sqldb/exec"
	"benchpress/internal/sqldb/txn"
	"benchpress/internal/wal"
)

func newEngine(t *testing.T, mode txn.Mode) *Engine {
	t.Helper()
	e := Open(Config{Name: "test", Mode: mode})
	t.Cleanup(e.Close)
	return e
}

func mustExec(t *testing.T, s *Session, sql string, args ...any) {
	t.Helper()
	if _, err := s.Exec(sql, args...); err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
}

func setupPeople(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE people (
		id INT NOT NULL,
		name VARCHAR(32) NOT NULL,
		age INT,
		city VARCHAR(16),
		balance DOUBLE DEFAULT 0,
		PRIMARY KEY (id)
	)`)
	mustExec(t, s, "CREATE INDEX idx_people_city ON people (city)")
	rows := []struct {
		id      int
		name    string
		age     int
		city    string
		balance float64
	}{
		{1, "alice", 30, "pgh", 10},
		{2, "bob", 25, "nyc", 20},
		{3, "carol", 35, "pgh", 30},
		{4, "dave", 25, "sfo", 40},
		{5, "erin", 40, "nyc", 50},
	}
	for _, r := range rows {
		mustExec(t, s, "INSERT INTO people (id, name, age, city, balance) VALUES (?, ?, ?, ?, ?)",
			r.id, r.name, r.age, r.city, r.balance)
	}
}

func TestCreateInsertSelect(t *testing.T) {
	for _, mode := range []txn.Mode{txn.Serial, txn.Locking, txn.MVCC} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEngine(t, mode)
			s := e.Session()
			setupPeople(t, s)
			res, err := s.Query("SELECT name, age FROM people WHERE id = ?", 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0][0].Str() != "carol" || res.Rows[0][1].Int() != 35 {
				t.Fatalf("rows = %v", res.Rows)
			}
			if res.Columns[0] != "name" || res.Columns[1] != "age" {
				t.Fatalf("columns = %v", res.Columns)
			}
		})
	}
}

func TestSelectStar(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	res, err := s.Query("SELECT * FROM people WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 5 || len(res.Rows) != 1 {
		t.Fatalf("cols=%v rows=%d", res.Columns, len(res.Rows))
	}
}

func TestSecondaryIndexQuery(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	res, err := s.Query("SELECT id FROM people WHERE city = ? ORDER BY id", "pgh")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 1 || res.Rows[1][0].Int() != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestRangeQuery(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	res, err := s.Query("SELECT id FROM people WHERE id >= 2 AND id <= 4 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res, err = s.Query("SELECT id FROM people WHERE id BETWEEN ? AND ? ORDER BY id DESC", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0].Int() != 4 {
		t.Fatalf("desc rows = %v", res.Rows)
	}
}

func TestOrderLimitOffset(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	res, err := s.Query("SELECT name FROM people ORDER BY age DESC, name LIMIT 2 OFFSET 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "carol" || res.Rows[1][0].Str() != "alice" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	res, err := s.Query("SELECT COUNT(*), SUM(balance), AVG(age), MIN(age), MAX(age) FROM people")
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if r[0].Int() != 5 || r[1].Float() != 150 || r[2].Float() != 31 || r[3].Int() != 25 || r[4].Int() != 40 {
		t.Fatalf("aggs = %v", r)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	res, err := s.Query("SELECT COUNT(*), SUM(balance) FROM people WHERE id > 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("empty agg = %v", res.Rows)
	}
}

func TestGroupByHaving(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	res, err := s.Query(`SELECT city, COUNT(*) AS n, SUM(balance) AS total
		FROM people GROUP BY city HAVING COUNT(*) > 1 ORDER BY total DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %v", res.Rows)
	}
	if res.Rows[0][0].Str() != "nyc" || res.Rows[0][1].Int() != 2 || res.Rows[0][2].Float() != 70 {
		t.Fatalf("first group = %v", res.Rows[0])
	}
	if res.Rows[1][0].Str() != "pgh" {
		t.Fatalf("second group = %v", res.Rows[1])
	}
}

func TestCountDistinct(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	res, err := s.Query("SELECT COUNT(DISTINCT city), COUNT(DISTINCT age) FROM people")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 || res.Rows[0][1].Int() != 4 {
		t.Fatalf("distinct counts = %v", res.Rows[0])
	}
}

func TestDistinctRows(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	res, err := s.Query("SELECT DISTINCT city FROM people ORDER BY city")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("distinct rows = %v", res.Rows)
	}
}

func TestJoin(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	mustExec(t, s, `CREATE TABLE orders (
		o_id INT NOT NULL, o_pid INT NOT NULL, amount DOUBLE, PRIMARY KEY (o_id))`)
	mustExec(t, s, "CREATE INDEX idx_orders_pid ON orders (o_pid)")
	for i, pid := range []int{1, 1, 2, 3, 3, 3} {
		mustExec(t, s, "INSERT INTO orders (o_id, o_pid, amount) VALUES (?, ?, ?)", i+1, pid, float64(i+1)*10)
	}
	res, err := s.Query(`SELECT p.name, o.amount FROM people p
		JOIN orders o ON o.o_pid = p.id WHERE p.city = ? ORDER BY o.amount`, "pgh")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("join rows = %v", res.Rows)
	}
	// Comma-join with WHERE predicate.
	res, err = s.Query(`SELECT COUNT(*) FROM people p, orders o WHERE o.o_pid = p.id`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 6 {
		t.Fatalf("comma join count = %v", res.Rows[0])
	}
	// Aggregation over a join.
	res, err = s.Query(`SELECT p.name, SUM(o.amount) AS total FROM people p
		JOIN orders o ON o.o_pid = p.id GROUP BY p.id, p.name ORDER BY total DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0].Str() != "carol" {
		t.Fatalf("grouped join = %v", res.Rows)
	}
}

func TestLeftJoin(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	mustExec(t, s, "CREATE TABLE pets (pet_id INT NOT NULL, owner INT, pname VARCHAR(10), PRIMARY KEY (pet_id))")
	mustExec(t, s, "INSERT INTO pets (pet_id, owner, pname) VALUES (1, 1, 'rex'), (2, 3, 'tom')")
	res, err := s.Query(`SELECT p.name, pt.pname FROM people p
		LEFT JOIN pets pt ON pt.owner = p.id ORDER BY p.id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("left join rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].Str() != "rex" {
		t.Fatalf("matched row = %v", res.Rows[0])
	}
	if !res.Rows[1][1].IsNull() {
		t.Fatalf("unmatched row should be NULL-extended: %v", res.Rows[1])
	}
}

func TestUpdate(t *testing.T) {
	for _, mode := range []txn.Mode{txn.Serial, txn.Locking, txn.MVCC} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEngine(t, mode)
			s := e.Session()
			setupPeople(t, s)
			res, err := s.Exec("UPDATE people SET balance = balance + ?, age = age + 1 WHERE city = ?", 5.0, "pgh")
			if err != nil {
				t.Fatal(err)
			}
			if res.RowsAffected != 2 {
				t.Fatalf("affected = %d", res.RowsAffected)
			}
			row, err := s.QueryRow("SELECT balance, age FROM people WHERE id = 1")
			if err != nil || row == nil {
				t.Fatal(err)
			}
			if row[0].Float() != 15 || row[1].Int() != 31 {
				t.Fatalf("row = %v", row)
			}
		})
	}
}

func TestUpdateIndexedColumn(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	mustExec(t, s, "UPDATE people SET city = ? WHERE id = 1", "sfo")
	res, err := s.Query("SELECT id FROM people WHERE city = 'sfo' ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// The old index entry must not produce the row anymore.
	res, err = s.Query("SELECT id FROM people WHERE city = 'pgh'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 3 {
		t.Fatalf("stale index rows = %v", res.Rows)
	}
}

func TestDelete(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	res, err := s.Exec("DELETE FROM people WHERE age < ?", 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	cnt, _ := s.QueryRow("SELECT COUNT(*) FROM people")
	if cnt[0].Int() != 3 {
		t.Fatalf("count = %v", cnt)
	}
}

func TestExplicitTransactionCommitRollback(t *testing.T) {
	for _, mode := range []txn.Mode{txn.Serial, txn.Locking, txn.MVCC} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEngine(t, mode)
			s := e.Session()
			setupPeople(t, s)

			mustExec(t, s, "BEGIN")
			mustExec(t, s, "UPDATE people SET balance = 0 WHERE id = 1")
			mustExec(t, s, "ROLLBACK")
			row, _ := s.QueryRow("SELECT balance FROM people WHERE id = 1")
			if row[0].Float() != 10 {
				t.Fatalf("rollback failed: %v", row)
			}

			mustExec(t, s, "BEGIN")
			mustExec(t, s, "UPDATE people SET balance = 0 WHERE id = 1")
			mustExec(t, s, "COMMIT")
			row, _ = s.QueryRow("SELECT balance FROM people WHERE id = 1")
			if row[0].Float() != 0 {
				t.Fatalf("commit failed: %v", row)
			}
		})
	}
}

func TestSelectForUpdateBlocksWriter(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s1 := e.Session()
	setupPeople(t, s1)
	if err := s1.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Query("SELECT balance FROM people WHERE id = 1 FOR UPDATE"); err != nil {
		t.Fatal(err)
	}
	s2 := e.Session()
	if _, err := s2.Exec("UPDATE people SET balance = 99 WHERE id = 1"); err == nil {
		t.Fatal("concurrent writer should conflict with FOR UPDATE claim")
	}
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec("UPDATE people SET balance = 99 WHERE id = 1"); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestInsertDefaultsAndAutoInc(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	mustExec(t, s, `CREATE TABLE logs (
		id INT NOT NULL AUTO_INCREMENT,
		msg VARCHAR(100) NOT NULL,
		level INT DEFAULT 3,
		PRIMARY KEY (id))`)
	res, err := s.Exec("INSERT INTO logs (msg) VALUES ('hello')")
	if err != nil {
		t.Fatal(err)
	}
	if res.LastInsertID != 1 {
		t.Fatalf("LastInsertID = %d", res.LastInsertID)
	}
	res, err = s.Exec("INSERT INTO logs (msg) VALUES ('world')")
	if err != nil {
		t.Fatal(err)
	}
	if res.LastInsertID != 2 {
		t.Fatalf("LastInsertID = %d", res.LastInsertID)
	}
	row, _ := s.QueryRow("SELECT level FROM logs WHERE id = 1")
	if row[0].Int() != 3 {
		t.Fatalf("default = %v", row)
	}
	// Explicit id bumps the sequence.
	mustExec(t, s, "INSERT INTO logs (id, msg) VALUES (10, 'jump')")
	res, _ = s.Exec("INSERT INTO logs (msg) VALUES ('after')")
	if res.LastInsertID != 11 {
		t.Fatalf("LastInsertID after bump = %d", res.LastInsertID)
	}
}

func TestNotNullViolation(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	if _, err := s.Exec("INSERT INTO people (id, name) VALUES (100, NULL)"); err == nil {
		t.Fatal("NOT NULL violation accepted")
	}
	if _, err := s.Exec("UPDATE people SET name = NULL WHERE id = 1"); err == nil {
		t.Fatal("NOT NULL update violation accepted")
	}
}

func TestDuplicatePrimaryKey(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	if _, err := s.Exec("INSERT INTO people (id, name) VALUES (1, 'dup')"); err == nil {
		t.Fatal("duplicate PK accepted")
	}
}

func TestVarcharTruncation(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	mustExec(t, s, "CREATE TABLE v (id INT NOT NULL, s VARCHAR(4), PRIMARY KEY (id))")
	mustExec(t, s, "INSERT INTO v (id, s) VALUES (1, 'abcdefgh')")
	row, _ := s.QueryRow("SELECT s FROM v WHERE id = 1")
	if row[0].Str() != "abcd" {
		t.Fatalf("s = %q", row[0].Str())
	}
}

func TestCaseExpression(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	res, err := s.Query(`SELECT SUM(CASE WHEN age < 30 THEN 1 ELSE 0 END),
		SUM(CASE WHEN age >= 30 THEN 1 ELSE 0 END) FROM people`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 || res.Rows[0][1].Int() != 3 {
		t.Fatalf("case sums = %v", res.Rows[0])
	}
}

func TestLikeInIsNull(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	mustExec(t, s, "INSERT INTO people (id, name, age, city) VALUES (6, 'frank', NULL, NULL)")
	res, _ := s.Query("SELECT id FROM people WHERE name LIKE 'a%'")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("like rows = %v", res.Rows)
	}
	res, _ = s.Query("SELECT id FROM people WHERE city IN ('pgh', 'sfo') ORDER BY id")
	if len(res.Rows) != 3 {
		t.Fatalf("in rows = %v", res.Rows)
	}
	res, _ = s.Query("SELECT id FROM people WHERE age IS NULL")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 6 {
		t.Fatalf("is null rows = %v", res.Rows)
	}
	res, _ = s.Query("SELECT COUNT(*) FROM people WHERE age IS NOT NULL")
	if res.Rows[0][0].Int() != 5 {
		t.Fatalf("is not null = %v", res.Rows)
	}
}

func TestScalarFunctions(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	row, err := s.QueryRow("SELECT UPPER(name), LENGTH(name), SUBSTR(name, 1, 2) FROM people WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Str() != "ALICE" || row[1].Int() != 5 || row[2].Str() != "al" {
		t.Fatalf("row = %v", row)
	}
}

func TestTruncateTable(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	mustExec(t, s, "TRUNCATE TABLE people")
	cnt, _ := s.QueryRow("SELECT COUNT(*) FROM people")
	if cnt[0].Int() != 0 {
		t.Fatalf("count after truncate = %v", cnt)
	}
	mustExec(t, s, "INSERT INTO people (id, name) VALUES (1, 'again')")
}

func TestDropTable(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	mustExec(t, s, "DROP TABLE people")
	if _, err := s.Query("SELECT * FROM people"); err == nil {
		t.Fatal("query after drop succeeded")
	}
	mustExec(t, s, "DROP TABLE IF EXISTS people")
}

func TestMultiRowInsert(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	mustExec(t, s, "CREATE TABLE m (a INT NOT NULL, PRIMARY KEY (a))")
	res, err := s.Exec("INSERT INTO m (a) VALUES (1), (2), (3)")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 3 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
}

func TestPreparedStatementReuse(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	st, err := s.Prepare("SELECT name FROM people WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"alice", "bob", "carol"} {
		res, err := st.Exec(i + 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Str() != want {
			t.Fatalf("row %d = %v", i, res.Rows)
		}
	}
}

func TestPlanUsesIndexes(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	// Exact PK lookup.
	cs, err := e.cachedStmt("SELECT name FROM people WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if got := explainOf(cs.plan); !strings.Contains(got, "pk-lookup") {
		t.Errorf("PK query plan = %s", got)
	}
	// Secondary index.
	cs, err = e.cachedStmt("SELECT name FROM people WHERE city = ?")
	if err != nil {
		t.Fatal(err)
	}
	if got := explainOf(cs.plan); !strings.Contains(got, "index-range") {
		t.Errorf("secondary query plan = %s", got)
	}
	// Unindexed predicate: sequential scan.
	cs, err = e.cachedStmt("SELECT name FROM people WHERE age = ?")
	if err != nil {
		t.Fatal(err)
	}
	if got := explainOf(cs.plan); !strings.Contains(got, "seqscan") {
		t.Errorf("unindexed query plan = %s", got)
	}
}

func TestVacuumThroughEngine(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	mustExec(t, s, "DELETE FROM people WHERE id <= 3")
	if n := e.Vacuum(); n != 3 {
		t.Fatalf("vacuumed %d, want 3", n)
	}
	cnt, _ := s.QueryRow("SELECT COUNT(*) FROM people")
	if cnt[0].Int() != 2 {
		t.Fatalf("count = %v", cnt)
	}
}

func TestSessionErrors(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	if err := s.Commit(); err != ErrNoTxn {
		t.Fatalf("commit without txn: %v", err)
	}
	if err := s.Rollback(); err != ErrNoTxn {
		t.Fatalf("rollback without txn: %v", err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err == nil {
		t.Fatal("nested begin accepted")
	}
	s.Rollback()
	if _, err := s.Exec("SELECT bogus FROM nothere"); err == nil {
		t.Fatal("query on missing table accepted")
	}
}

func TestArithmeticInSelect(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	row, err := s.QueryRow("SELECT balance * 2 + 1, age - 5, age % 7 FROM people WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Float() != 41 || row[1].Int() != 20 || row[2].Int() != 4 {
		t.Fatalf("row = %v", row)
	}
}

func TestCompositePrimaryKey(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	mustExec(t, s, `CREATE TABLE wd (w INT NOT NULL, d INT NOT NULL, ytd DOUBLE, PRIMARY KEY (w, d))`)
	for w := 1; w <= 3; w++ {
		for d := 1; d <= 10; d++ {
			mustExec(t, s, "INSERT INTO wd (w, d, ytd) VALUES (?, ?, ?)", w, d, float64(w*100+d))
		}
	}
	row, err := s.QueryRow("SELECT ytd FROM wd WHERE w = ? AND d = ?", 2, 7)
	if err != nil || row == nil {
		t.Fatalf("row=%v err=%v", row, err)
	}
	if row[0].Float() != 207 {
		t.Fatalf("ytd = %v", row[0])
	}
	// Prefix scan on first PK column.
	res, err := s.Query("SELECT COUNT(*) FROM wd WHERE w = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 10 {
		t.Fatalf("prefix count = %v", res.Rows[0])
	}
	// Prefix + range.
	res, err = s.Query("SELECT COUNT(*) FROM wd WHERE w = 2 AND d >= 5 AND d <= 7")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("prefix range count = %v", res.Rows[0])
	}
}

func TestConcurrentSessionsMVCC(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	setupPeople(t, s)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			sess := e.Session()
			var firstErr error
			for i := 0; i < 100; i++ {
				id := (w*100+i)%5 + 1
				if _, err := sess.Query("SELECT name, balance FROM people WHERE id = ?", id); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			done <- firstErr
		}(w)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// explainOf renders a plan's access-path summary.
func explainOf(p exec.Plan) string { return exec.Explain(p) }

// Regression: updating an indexed column leaves the old index entry behind
// (by design, for snapshot readers); scans that do not constrain the updated
// column must still return each row exactly once, and scans on the old value
// must not return the row at all.
func TestUpdatedIndexEntryNotDuplicated(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	mustExec(t, s, "CREATE TABLE res (id INT NOT NULL, flight INT, seat INT, PRIMARY KEY (id))")
	mustExec(t, s, "CREATE UNIQUE INDEX idx_fs ON res (flight, seat)")
	mustExec(t, s, "INSERT INTO res VALUES (1, 7, 10), (2, 7, 11), (3, 8, 10)")
	// Move row 1 to another seat (same flight): its index key changes.
	mustExec(t, s, "UPDATE res SET seat = 99 WHERE id = 1")

	cnt, _ := s.QueryRow("SELECT COUNT(*) FROM res WHERE flight = 7")
	if cnt[0].Int() != 2 {
		t.Fatalf("count by flight = %v, want 2 (duplicate index entries?)", cnt[0])
	}
	// The vacated seat must read as free...
	row, _ := s.QueryRow("SELECT id FROM res WHERE flight = 7 AND seat = 10")
	if row != nil {
		t.Fatalf("vacated seat still occupied by %v", row)
	}
	// ...and be insertable again despite the stale unique-index entry.
	if _, err := s.Exec("INSERT INTO res VALUES (4, 7, 10)"); err != nil {
		t.Fatalf("re-insert into vacated unique slot: %v", err)
	}
	// The new position is found.
	row, _ = s.QueryRow("SELECT id FROM res WHERE flight = 7 AND seat = 99")
	if row == nil || row[0].Int() != 1 {
		t.Fatalf("moved row not found at new seat: %v", row)
	}
}

// The same discipline applies to primary-key updates.
func TestUpdatedPrimaryKeyLookup(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	mustExec(t, s, "CREATE TABLE pkm (id INT NOT NULL, v INT, PRIMARY KEY (id))")
	mustExec(t, s, "INSERT INTO pkm VALUES (1, 10)")
	mustExec(t, s, "UPDATE pkm SET id = 2 WHERE id = 1")
	row, _ := s.QueryRow("SELECT v FROM pkm WHERE id = 1")
	if row != nil {
		t.Fatalf("old PK still resolves: %v", row)
	}
	row, _ = s.QueryRow("SELECT v FROM pkm WHERE id = 2")
	if row == nil || row[0].Int() != 10 {
		t.Fatalf("new PK not found: %v", row)
	}
	cnt, _ := s.QueryRow("SELECT COUNT(*) FROM pkm")
	if cnt[0].Int() != 1 {
		t.Fatalf("count = %v", cnt[0])
	}
}

// The order-by/limit pushdown must agree exactly with the materialize-and-
// sort path across ascending/descending, offsets, and secondary indexes.
func TestOrderByPushdownEquivalence(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s := e.Session()
	mustExec(t, s, `CREATE TABLE ev (id INT NOT NULL, grp INT, ts INT, note VARCHAR(8), PRIMARY KEY (id))`)
	mustExec(t, s, "CREATE INDEX idx_ev_grp_ts ON ev (grp, ts)")
	for i := 0; i < 200; i++ {
		mustExec(t, s, "INSERT INTO ev VALUES (?, ?, ?, ?)", i, i%5, (i*37)%101, "n")
	}
	// Pushdown-eligible: ORDER BY continues the index after the eq prefix.
	fast, err := s.Query("SELECT id, ts FROM ev WHERE grp = ? ORDER BY ts DESC LIMIT 7", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: force a non-pushdown plan by ordering on an expression.
	slow, err := s.Query("SELECT id, ts FROM ev WHERE grp = ? ORDER BY ts + 0 DESC, id LIMIT 7", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Rows) != 7 || len(slow.Rows) != len(fast.Rows) {
		t.Fatalf("row counts: fast=%d slow=%d", len(fast.Rows), len(slow.Rows))
	}
	for i := range fast.Rows {
		if fast.Rows[i][1].Int() != slow.Rows[i][1].Int() {
			t.Fatalf("row %d: pushdown ts=%v reference ts=%v", i, fast.Rows[i][1], slow.Rows[i][1])
		}
	}
	// Ascending with offset through the primary key.
	asc, err := s.Query("SELECT id FROM ev WHERE id >= 50 ORDER BY id LIMIT 5 OFFSET 3")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{53, 54, 55, 56, 57} {
		if asc.Rows[i][0].Int() != want {
			t.Fatalf("asc offset rows = %v", asc.Rows)
		}
	}
	// LIMIT 0 returns nothing and must not error.
	zero, err := s.Query("SELECT id FROM ev ORDER BY id LIMIT 0")
	if err != nil || len(zero.Rows) != 0 {
		t.Fatalf("limit 0: %v %v", zero, err)
	}
	// Parameterized limit.
	pl, err := s.Query("SELECT id FROM ev WHERE grp = ? ORDER BY ts LIMIT ?", 2, 4)
	if err != nil || len(pl.Rows) != 4 {
		t.Fatalf("param limit: %d rows, err %v", len(pl.Rows), err)
	}
}

// FOR UPDATE with a pushed-down LIMIT must only claim the returned rows,
// leaving the rest of the range writable by others.
func TestForUpdateLimitClaimsOnlyReturnedRows(t *testing.T) {
	e := newEngine(t, txn.MVCC)
	s1 := e.Session()
	mustExec(t, s1, "CREATE TABLE q (id INT NOT NULL, state INT, PRIMARY KEY (id))")
	for i := 0; i < 20; i++ {
		mustExec(t, s1, "INSERT INTO q VALUES (?, 0)", i)
	}
	if err := s1.Begin(); err != nil {
		t.Fatal(err)
	}
	row, err := s1.Query("SELECT id FROM q ORDER BY id LIMIT 1 FOR UPDATE")
	if err != nil || len(row.Rows) != 1 || row.Rows[0][0].Int() != 0 {
		t.Fatalf("head claim: %v %v", row, err)
	}
	// Another session must be able to write any other row immediately.
	s2 := e.Session()
	if _, err := s2.Exec("UPDATE q SET state = 1 WHERE id = 5"); err != nil {
		t.Fatalf("row 5 should not be claimed: %v", err)
	}
	// But the claimed head row conflicts.
	if _, err := s2.Exec("UPDATE q SET state = 1 WHERE id = 0"); err == nil {
		t.Fatal("claimed head row was writable by another session")
	}
	s1.Commit()
}

// TestAutocommitTxnInfo is the regression test for autocommit outcome
// reporting: Exec outside an explicit transaction used to leave the session's
// last-transaction info untouched, so observers (the consistency harness
// records serialization timestamps through it) saw a stale or zero Info.
// Both the success and the failure path must publish the autocommit txn.
func TestAutocommitTxnInfo(t *testing.T) {
	for _, mode := range []txn.Mode{txn.Serial, txn.Locking, txn.MVCC} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEngine(t, mode)
			s := e.Session()
			setupPeople(t, s)
			mustExec(t, s, "UPDATE people SET age = 31 WHERE id = 1")
			info := s.TxnInfo()
			if !info.Committed || info.ID == 0 || info.SerialTS == 0 {
				t.Fatalf("successful autocommit not published: %+v", info)
			}
			prev := info.ID
			if _, err := s.Exec("INSERT INTO people (id, name) VALUES (1, 'dup')"); err == nil {
				t.Fatal("duplicate insert succeeded")
			}
			info = s.TxnInfo()
			if info.ID == prev {
				t.Fatalf("failed autocommit did not publish a new txn: %+v", info)
			}
			if info.Committed {
				t.Fatalf("failed autocommit reported committed: %+v", info)
			}
		})
	}
}

// TestRAMEngineLogReplays pins the RAM engines' commit record: every writing
// commit logs the framed wal.EncodeCommit record the disk engine writes, so
// the log decodes with the reader recovery uses, one record per writer in
// commit order, and read-only commits log nothing.
func TestRAMEngineLogReplays(t *testing.T) {
	var sink bytes.Buffer
	e := Open(Config{Name: "test", Mode: txn.MVCC, WALPolicy: wal.SyncGroup, WALSink: &sink})
	s := e.Session()
	mustExec(t, s, "CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k))")
	const writers = 6
	var want []uint64
	for i := 0; i < writers; i++ {
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		mustExec(t, s, "INSERT INTO kv (k, v) VALUES (?, ?)", i, i)
		want = append(want, s.TxnInfo().ID)
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		// One explicit and one autocommitted read-only transaction.
		if err := s.BeginReadOnly(); err != nil {
			t.Fatal(err)
		}
		mustExec(t, s, "SELECT v FROM kv WHERE k = ?", i)
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		mustExec(t, s, "SELECT v FROM kv WHERE k = ?", i)
	}
	e.Close()

	recs, err := wal.ReadRecords(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers {
		t.Fatalf("log holds %d records, want %d", len(recs), writers)
	}
	for i, r := range recs {
		rec, err := wal.DecodeARIES(r.Payload)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Kind != wal.KindCommit || rec.Commit != want[i] {
			t.Fatalf("record %d is kind %d for txn %d, want the commit of txn %d", i, rec.Kind, rec.Commit, want[i])
		}
	}
}
