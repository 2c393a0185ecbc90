// Package dialect implements OLTP-Bench's human-written SQL dialect
// management. The framework stores each statement under a stable id with a
// canonical SQL text; per-DBMS dialects override individual statements with
// hand-tuned variants, exactly as the paper describes ("we allow experts for
// individual systems to contribute specific SQL variants both for DML and
// DDL queries").
//
// Dialects also provide mechanical DDL rewriting (type-name mapping), since
// benchmark schemas are written once in a canonical dialect and ported.
package dialect

import (
	"regexp"
	"strings"
	"sync"
)

// Statement is one named SQL statement with per-dialect overrides.
type Statement struct {
	ID        string
	Canonical string
	overrides map[string]string
	// resolved memoizes SQL's answer per dialect name as asked: the rewrite
	// rules are regexps, and a benchmark resolves its statements on every
	// transaction. Override clears it.
	resolved map[string]string
}

// Catalog holds the statements of one benchmark and the dialect rewrites.
type Catalog struct {
	mu    sync.RWMutex
	stmts map[string]*Statement
}

// NewCatalog returns an empty statement catalog.
func NewCatalog() *Catalog {
	return &Catalog{stmts: map[string]*Statement{}}
}

// Register adds a canonical statement under id, returning the id for
// convenient inline use.
func (c *Catalog) Register(id, sql string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stmts[id] = &Statement{ID: id, Canonical: sql, overrides: map[string]string{}, resolved: map[string]string{}}
	return id
}

// Override installs a dialect-specific variant of a registered statement.
func (c *Catalog) Override(id, dialect, sql string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.stmts[id]; ok {
		st.overrides[strings.ToLower(dialect)] = sql
		clear(st.resolved)
	}
}

// SQL resolves the statement text for a dialect, falling back to the
// canonical form, and applies the dialect's mechanical rewrites. The answer
// is computed once per (id, dialect) and memoized until the next Override.
func (c *Catalog) SQL(id, dialectName string) (string, bool) {
	c.mu.RLock()
	st, ok := c.stmts[id]
	var sql string
	var hit bool
	if ok {
		sql, hit = st.resolved[dialectName]
	}
	c.mu.RUnlock()
	if !ok {
		return "", false
	}
	if hit {
		return sql, true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sql, ok = st.overrides[strings.ToLower(dialectName)]
	if !ok {
		sql = Rewrite(st.Canonical, dialectName)
	}
	st.resolved[dialectName] = sql
	return sql, true
}

// IDs lists the registered statement ids.
func (c *Catalog) IDs() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := make([]string, 0, len(c.stmts))
	for id := range c.stmts {
		ids = append(ids, id)
	}
	return ids
}

// rule is one mechanical rewrite.
type rule struct {
	re   *regexp.Regexp
	repl string
}

// dialectRules maps a dialect name to its mechanical DDL/DML rewrites. The
// embedded engine accepts the canonical dialect natively; these rules model
// the porting work the paper describes and are exercised by tests and the
// dialect-dump tool so contributed variants stay comparable.
var dialectRules = map[string][]rule{
	// The canonical dialect used by the embedded engines: no rewrites.
	"gosql": nil,
	// A MySQL-flavoured target.
	"mysql": {
		{regexp.MustCompile(`(?i)\bCLOB\b`), "LONGTEXT"},
		{regexp.MustCompile(`(?i)\bDOUBLE PRECISION\b`), "DOUBLE"},
		{regexp.MustCompile(`(?i)\bBOOLEAN\b`), "TINYINT"},
		{regexp.MustCompile(`(?i)\bFETCH FIRST (\d+) ROWS ONLY\b`), "LIMIT $1"},
	},
	// A PostgreSQL-flavoured target.
	"postgres": {
		{regexp.MustCompile(`(?i)\bCLOB\b`), "TEXT"},
		{regexp.MustCompile(`(?i)\bDATETIME\b`), "TIMESTAMP"},
		{regexp.MustCompile(`(?i)\bAUTO_INCREMENT\b`), ""},
		{regexp.MustCompile(`(?i)\bTINYINT\b`), "SMALLINT"},
	},
	// A Derby-flavoured target (no LIMIT syntax).
	"derby": {
		{regexp.MustCompile(`(?i)\bLIMIT (\d+)\b`), "FETCH FIRST $1 ROWS ONLY"},
		{regexp.MustCompile(`(?i)\bTINYINT\b`), "SMALLINT"},
		{regexp.MustCompile(`(?i)\bDATETIME\b`), "TIMESTAMP"},
	},
}

// Rewrite applies a dialect's mechanical rules to sql. Unknown dialects get
// the canonical text unchanged.
func Rewrite(sql, dialectName string) string {
	rules, ok := dialectRules[strings.ToLower(dialectName)]
	if !ok {
		return sql
	}
	for _, r := range rules {
		sql = r.re.ReplaceAllString(sql, r.repl)
	}
	return sql
}

// Known reports whether a dialect has registered rewrite rules.
func Known(dialectName string) bool {
	_, ok := dialectRules[strings.ToLower(dialectName)]
	return ok
}

// Names lists the known dialects.
func Names() []string {
	names := make([]string, 0, len(dialectRules))
	for n := range dialectRules {
		names = append(names, n)
	}
	return names
}
