package dialect

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestRegisterAndResolve(t *testing.T) {
	c := NewCatalog()
	id := c.Register("getUser", "SELECT * FROM users WHERE id = ?")
	if id != "getUser" {
		t.Fatalf("id = %q", id)
	}
	sql, ok := c.SQL("getUser", "gosql")
	if !ok || sql != "SELECT * FROM users WHERE id = ?" {
		t.Fatalf("sql = %q ok=%v", sql, ok)
	}
	if _, ok := c.SQL("missing", "gosql"); ok {
		t.Fatal("missing statement resolved")
	}
}

func TestOverrideWinsOverRewrite(t *testing.T) {
	c := NewCatalog()
	c.Register("q", "SELECT a FROM t LIMIT 5")
	// Resolve first, so the override must also replace a memoized answer.
	if sql, _ := c.SQL("q", "Derby"); !strings.Contains(sql, "FETCH FIRST 5") {
		t.Fatalf("derby rewrite = %q", sql)
	}
	c.Override("q", "derby", "SELECT a FROM t FETCH FIRST 5 ROWS ONLY -- expert variant")
	for _, d := range []string{"derby", "Derby"} {
		if sql, _ := c.SQL("q", d); !strings.Contains(sql, "expert variant") {
			t.Fatalf("override not used for %s: %q", d, sql)
		}
	}
	// Other dialects still get the canonical (possibly rewritten) form.
	if sql, _ := c.SQL("q", "mysql"); !strings.Contains(sql, "LIMIT 5") {
		t.Fatalf("mysql variant = %q", sql)
	}
}

func TestMechanicalRewrites(t *testing.T) {
	cases := []struct {
		dialect string
		in      string
		want    string
	}{
		{"mysql", "CREATE TABLE t (d CLOB)", "CREATE TABLE t (d LONGTEXT)"},
		{"mysql", "x DOUBLE PRECISION", "x DOUBLE"},
		{"mysql", "SELECT a FROM t FETCH FIRST 10 ROWS ONLY", "SELECT a FROM t LIMIT 10"},
		{"postgres", "CREATE TABLE t (d CLOB)", "CREATE TABLE t (d TEXT)"},
		{"postgres", "ts DATETIME", "ts TIMESTAMP"},
		{"derby", "SELECT a FROM t LIMIT 3", "SELECT a FROM t FETCH FIRST 3 ROWS ONLY"},
		{"gosql", "SELECT a FROM t LIMIT 3", "SELECT a FROM t LIMIT 3"},
		{"unknown-dbms", "SELECT 1 FROM t", "SELECT 1 FROM t"},
	}
	for _, tc := range cases {
		if got := Rewrite(tc.in, tc.dialect); got != tc.want {
			t.Errorf("Rewrite(%q, %s) = %q, want %q", tc.in, tc.dialect, got, tc.want)
		}
	}
}

func TestKnownAndNames(t *testing.T) {
	for _, d := range []string{"gosql", "mysql", "postgres", "derby"} {
		if !Known(d) {
			t.Errorf("Known(%s) = false", d)
		}
	}
	if Known("oracle12c") {
		t.Error("unexpected dialect known")
	}
	if len(Names()) < 4 {
		t.Errorf("Names() = %v", Names())
	}
}

func TestIDs(t *testing.T) {
	c := NewCatalog()
	c.Register("a", "SELECT 1 FROM t")
	c.Register("b", "SELECT 2 FROM t")
	if len(c.IDs()) != 2 {
		t.Fatalf("IDs = %v", c.IDs())
	}
}

// TestSQLMemoizedWithoutAllocs: after the first resolution a repeated SQL
// call is a map hit — no regexp run and no allocation.
func TestSQLMemoizedWithoutAllocs(t *testing.T) {
	c := NewCatalog()
	c.Register("scan", "SELECT * FROM t WHERE k >= ? AND k <= ? LIMIT 100")
	want, _ := c.SQL("scan", "postgres")
	avg := testing.AllocsPerRun(100, func() {
		if got, ok := c.SQL("scan", "postgres"); !ok || got != want {
			t.Fatalf("SQL = %q, %v; want %q", got, ok, want)
		}
	})
	if avg != 0 {
		t.Fatalf("repeated SQL allocates %.1f objects/op, want 0", avg)
	}
}

// TestSQLConcurrentWithOverride runs resolutions against overrides of the
// same statement; under -race it fails if SQL reads a statement's maps
// outside the catalog lock.
func TestSQLConcurrentWithOverride(t *testing.T) {
	c := NewCatalog()
	c.Register("q", "SELECT a FROM t LIMIT 5")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if g == 0 {
					c.Override("q", "derby", fmt.Sprintf("SELECT a FROM t -- variant %d", i))
					continue
				}
				if sql, ok := c.SQL("q", []string{"derby", "mysql", "postgres"}[i%3]); !ok || sql == "" {
					t.Errorf("SQL = %q, %v", sql, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if sql, _ := c.SQL("q", "derby"); sql != "SELECT a FROM t -- variant 499" {
		t.Fatalf("last override not visible: %q", sql)
	}
}
