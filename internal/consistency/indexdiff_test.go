package consistency

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"benchpress/internal/dbdriver"
)

// The index-vs-scan differential: every table exists twice with the same
// rows, once with the benchmarks' primary keys and secondary indexes and
// once with none, so a query over the twin is a sequential scan that
// filters every row with sqlval.Compare. The same seeded queries run on
// both, with parameters of every kind against every column (NULL, floats
// with and without a fraction, numeric and other text, integers around
// ±2^53); an index access path that seeks wrong, widens wrong or orders
// wrong returns other rows than the scan.

// diffTable is one table shape: its columns, its indexes, a row generator
// and query templates (%s is the table's name).
type diffTable struct {
	name    string
	columns string
	indexes []string // the primary key clause, then "[UNIQUE ]INDEX (columns)" for each secondary index
	row     func(rng *rand.Rand, i int) []any
	queries []diffQuery
}

// diffQuery is one query template and its parameter generator. ordered
// queries compare row sequences, the rest multisets.
type diffQuery struct {
	sql     string
	args    func(rng *rand.Rand) []any
	ordered bool
}

// mixed draws a search value of any kind around the integer n: n itself,
// as a float with and without a fraction, as text (plain, padded, with a
// fraction, not numeric), NULL, or an integer beyond ±2^53.
func mixed(rng *rand.Rand, n int) any {
	switch rng.Intn(12) {
	case 0:
		return nil
	case 1:
		return float64(n)
	case 2:
		return float64(n) + 0.5
	case 3:
		return fmt.Sprint(n)
	case 4:
		return fmt.Sprintf(" %d.0 ", n)
	case 5:
		return fmt.Sprintf("%da", n)
	case 6:
		return []any{int64(1<<53 + 1), int64(-1<<53 - 1), float64(1 << 53), math.Inf(1)}[rng.Intn(4)]
	case 7:
		return time.Unix(0, int64(n)).UTC()
	default:
		return n
	}
}

// text draws a short name from a pool with shared prefixes, numeric-looking
// entries and bytes 0x00 and 0xFF, or NULL.
func text(rng *rand.Rand) any {
	pool := []string{"BAR", "BARBAR", "BARBARBAR", "OUGHT", "ABLE", "12", "12.0", "007", "7", "1a", "", "a\x00b", "a\xff", "a"}
	if rng.Intn(10) == 0 {
		return nil
	}
	return pool[rng.Intn(len(pool))]
}

// textOrNumber draws a search value for a text column: a name, or a number.
func textOrNumber(rng *rand.Rand) any {
	if rng.Intn(4) == 0 {
		return mixed(rng, rng.Intn(20))
	}
	return text(rng)
}

func diffTables() []diffTable {
	return []diffTable{
		{
			name:    "usertable",
			columns: "ycsb_key INT NOT NULL, field1 VARCHAR(16), field2 VARCHAR(16)",
			indexes: []string{"PRIMARY KEY (ycsb_key)"},
			row: func(rng *rand.Rand, i int) []any {
				k := int64(i * 3)
				if i%50 == 49 {
					k = []int64{1 << 53, 1<<53 + 1, -1 << 53, math.MaxInt64, math.MinInt64}[i/50%5]
				}
				return []any{k, text(rng), fmt.Sprint(i)}
			},
			queries: []diffQuery{
				{sql: "SELECT * FROM %s WHERE ycsb_key = ?", args: func(r *rand.Rand) []any { return []any{mixed(r, 3*r.Intn(120))} }},
				{sql: "SELECT * FROM %s WHERE ycsb_key >= ? AND ycsb_key < ?", args: func(r *rand.Rand) []any { return []any{mixed(r, r.Intn(300)), mixed(r, r.Intn(400))} }},
				{sql: "SELECT ycsb_key FROM %s WHERE ycsb_key > ? ORDER BY ycsb_key LIMIT 7", args: func(r *rand.Rand) []any { return []any{mixed(r, r.Intn(300))} }, ordered: true},
				{sql: "SELECT ycsb_key FROM %s WHERE ycsb_key <= ? ORDER BY ycsb_key DESC LIMIT 5", args: func(r *rand.Rand) []any { return []any{mixed(r, r.Intn(300))} }, ordered: true},
			},
		},
		{
			name:    "customer",
			columns: "c_w_id INT NOT NULL, c_d_id INT NOT NULL, c_id INT NOT NULL, c_last VARCHAR(16), c_first VARCHAR(16), c_balance DOUBLE",
			indexes: []string{"PRIMARY KEY (c_w_id, c_d_id, c_id)", "INDEX (c_w_id, c_d_id, c_last, c_first)"},
			row: func(rng *rand.Rand, i int) []any {
				return []any{1 + i%2, 1 + i/2%5, i, text(rng), text(rng), float64(rng.Intn(21)-10) / 2}
			},
			queries: []diffQuery{
				{sql: "SELECT c_id, c_balance FROM %s WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?", args: func(r *rand.Rand) []any { return []any{1 + r.Intn(2), mixed(r, 1+r.Intn(5)), mixed(r, r.Intn(150))} }},
				{sql: "SELECT c_id FROM %s WHERE c_w_id = ? AND c_d_id = ? AND c_last = ?", args: func(r *rand.Rand) []any { return []any{1 + r.Intn(2), 1 + r.Intn(5), textOrNumber(r)} }},
				{sql: "SELECT c_id FROM %s WHERE c_w_id = ? AND c_d_id = ? AND c_last = ? ORDER BY c_first, c_id", args: func(r *rand.Rand) []any { return []any{mixed(r, 1+r.Intn(2)), 1 + r.Intn(5), textOrNumber(r)} }, ordered: true},
				{sql: "SELECT c_id FROM %s WHERE c_w_id = ? AND c_d_id = ? AND c_last > ?", args: func(r *rand.Rand) []any { return []any{1 + r.Intn(2), 1 + r.Intn(5), textOrNumber(r)} }},
				{sql: "SELECT c_id FROM %s WHERE c_w_id = ? AND c_d_id = ? AND c_id BETWEEN ? AND ? ORDER BY c_id DESC LIMIT 4", args: func(r *rand.Rand) []any {
					return []any{1 + r.Intn(2), 1 + r.Intn(5), mixed(r, r.Intn(100)), mixed(r, r.Intn(150))}
				}, ordered: true},
			},
		},
		{
			name:    "order_line",
			columns: "ol_w_id INT NOT NULL, ol_d_id INT NOT NULL, ol_o_id INT NOT NULL, ol_number INT NOT NULL, ol_i_id INT, ol_amount DOUBLE, ol_delivery_d TIMESTAMP",
			indexes: []string{"PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number)", "INDEX (ol_amount)", "INDEX (ol_delivery_d)"},
			row: func(rng *rand.Rand, i int) []any {
				var d any
				if rng.Intn(3) > 0 {
					d = time.Unix(0, int64(rng.Intn(40))).UTC()
				}
				amount := []any{nil, 0.0, math.Copysign(0, -1), -2.5, 5.0, 5.5, math.Inf(1), 1e300, float64(rng.Intn(20))}[rng.Intn(9)]
				return []any{1, 1 + i%3, i / 30, i % 30 / 3, rng.Intn(50), amount, d}
			},
			queries: []diffQuery{
				{sql: "SELECT ol_number, ol_i_id FROM %s WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?", args: func(r *rand.Rand) []any { return []any{1, mixed(r, 1+r.Intn(3)), mixed(r, r.Intn(20))} }},
				{sql: "SELECT ol_o_id, ol_number FROM %s WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id >= ? AND ol_o_id < ?", args: func(r *rand.Rand) []any { return []any{1, 1 + r.Intn(3), mixed(r, r.Intn(20)), mixed(r, r.Intn(25))} }},
				{sql: "SELECT ol_o_id FROM %s WHERE ol_w_id = ? AND ol_d_id = ? ORDER BY ol_o_id DESC, ol_number DESC LIMIT 3", args: func(r *rand.Rand) []any { return []any{1, mixed(r, 1+r.Intn(3))} }, ordered: true},
				{sql: "SELECT ol_o_id, ol_number FROM %s WHERE ol_amount = ?", args: func(r *rand.Rand) []any { return []any{mixed(r, r.Intn(8))} }},
				{sql: "SELECT ol_o_id, ol_number FROM %s WHERE ol_amount > ? AND ol_amount <= ?", args: func(r *rand.Rand) []any { return []any{mixed(r, r.Intn(8)-3), mixed(r, r.Intn(20))} }},
				{sql: "SELECT ol_o_id, ol_number FROM %s WHERE ol_delivery_d < ?", args: func(r *rand.Rand) []any { return []any{mixed(r, r.Intn(40))} }},
				{sql: "SELECT ol_o_id, ol_number FROM %s WHERE ol_delivery_d = ?", args: func(r *rand.Rand) []any { return []any{mixed(r, r.Intn(40))} }},
			},
		},
		{
			name:    "subscriber",
			columns: "s_id INT NOT NULL, sub_nbr VARCHAR(15) NOT NULL, bit_1 BOOLEAN, msc_location INT",
			indexes: []string{"PRIMARY KEY (s_id)", "UNIQUE INDEX (sub_nbr)", "INDEX (bit_1, msc_location)"},
			row: func(rng *rand.Rand, i int) []any {
				var bit any = rng.Intn(2) == 1
				if rng.Intn(6) == 0 {
					bit = nil
				}
				return []any{i + 1, fmt.Sprintf("%015d", i+1), bit, rng.Intn(10)}
			},
			queries: []diffQuery{
				{sql: "SELECT s_id FROM %s WHERE sub_nbr = ?", args: func(r *rand.Rand) []any {
					if r.Intn(3) == 0 {
						return []any{mixed(r, 1+r.Intn(120))}
					}
					return []any{fmt.Sprintf("%015d", 1+r.Intn(120))}
				}},
				{sql: "SELECT s_id FROM %s WHERE sub_nbr >= ? ORDER BY sub_nbr LIMIT 6", args: func(r *rand.Rand) []any { return []any{textOrNumber(r)} }, ordered: true},
				{sql: "SELECT s_id FROM %s WHERE bit_1 = ? AND msc_location < ?", args: func(r *rand.Rand) []any { return []any{mixed(r, r.Intn(2)), mixed(r, r.Intn(10))} }},
				{sql: "SELECT s_id FROM %s WHERE s_id = ?", args: func(r *rand.Rand) []any { return []any{mixed(r, r.Intn(130))} }},
			},
		},
	}
}

// TestIndexScanDifferential runs every query of every table shape on the
// indexed table and on its unindexed twin, on all three personalities, and
// requires the same rows (the same sequence for ORDER BY ... LIMIT).
func TestIndexScanDifferential(t *testing.T) {
	const rows, queries = 120, 60
	for _, personality := range []string{"goserial", "golock", "gomvcc"} {
		t.Run(personality, func(t *testing.T) {
			db, err := openDB(Config{Personality: personality})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			conn := db.Connect()
			defer func() { _ = conn.Close() }()
			rng := rand.New(rand.NewSource(harnessSeed(t)))
			for _, tb := range diffTables() {
				mustDiffExec(t, conn, fmt.Sprintf("CREATE TABLE %s_scan (%s)", tb.name, tb.columns))
				mustDiffExec(t, conn, fmt.Sprintf("CREATE TABLE %s (%s, %s)", tb.name, tb.columns, tb.indexes[0]))
				for j, idx := range tb.indexes[1:] {
					unique, cols, _ := strings.Cut(idx, "INDEX ")
					mustDiffExec(t, conn, fmt.Sprintf("CREATE %sINDEX %s_%d ON %s %s", unique, tb.name, j, tb.name, cols))
				}
				ncols := strings.Count(tb.columns, ",") + 1
				marks := strings.TrimSuffix(strings.Repeat("?, ", ncols), ", ")
				for i := 0; i < rows; i++ {
					r := tb.row(rng, i)
					for _, name := range []string{tb.name, tb.name + "_scan"} {
						mustDiffExec(t, conn, fmt.Sprintf("INSERT INTO %s VALUES (%s)", name, marks), r...)
					}
				}
				for qi := 0; qi < queries; qi++ {
					q := tb.queries[qi%len(tb.queries)]
					args := q.args(rng)
					got := diffRows(t, conn, fmt.Sprintf(q.sql, tb.name), args, q.ordered)
					want := diffRows(t, conn, fmt.Sprintf(q.sql, tb.name+"_scan"), args, q.ordered)
					if got != want {
						t.Errorf("%s %v:\n index %s\n scan  %s", fmt.Sprintf(q.sql, tb.name), args, got, want)
					}
				}
			}
		})
	}
}

func mustDiffExec(t *testing.T, conn *dbdriver.Conn, sql string, args ...any) {
	t.Helper()
	if _, err := conn.Exec(sql, args...); err != nil {
		t.Fatalf("%s %v: %v", sql, args, err)
	}
}

// diffRows runs a query and renders its rows, sorted unless ordered.
func diffRows(t *testing.T, conn *dbdriver.Conn, sql string, args []any, ordered bool) string {
	t.Helper()
	res, err := conn.Query(sql, args...)
	if err != nil {
		t.Fatalf("%s %v: %v", sql, args, err)
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprint(r)
	}
	if !ordered {
		sort.Strings(out)
	}
	return strings.Join(out, " ")
}
