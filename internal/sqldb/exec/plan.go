package exec

import (
	"fmt"

	"benchpress/internal/sqldb/catalog"
	"benchpress/internal/sqldb/parser"
	"benchpress/internal/sqldb/storage"
	"benchpress/internal/sqlval"
)

// Resolver supplies physical tables to the planner.
type Resolver interface {
	StorageTable(name string) (*storage.Table, error)
}

// accessKind classifies a table's access path.
type accessKind uint8

const (
	accessSeq       accessKind = iota // full table scan
	accessPrimaryEq                   // unique primary-key lookup
	accessPrimary                     // primary index prefix/range scan
	accessSecondary                   // secondary index prefix/range scan
)

// String names the access kind for EXPLAIN-style output and tests.
func (k accessKind) String() string {
	switch k {
	case accessSeq:
		return "seqscan"
	case accessPrimaryEq:
		return "pk-lookup"
	case accessPrimary:
		return "pk-range"
	case accessSecondary:
		return "index-range"
	default:
		return "?"
	}
}

// accessPath is a compiled index choice for one scan level.
type accessPath struct {
	kind accessKind
	ord  int      // secondary index ordinal for accessSecondary
	eq   []EvalFn // equality values for the index prefix, in index-column order
	lo   EvalFn   // optional range lower bound on the next index column
	hi   EvalFn   // optional range upper bound on the next index column
	desc bool     // scan direction (used by order-by pushdown)
	// kinds are the index columns' kinds, in index-column order: bound
	// values are converted to them before they are encoded (scanBounds).
	kinds []sqlval.Kind
}

// scanLevel is one table in the join pipeline.
type scanLevel struct {
	tbl      *storage.Table
	offset   int // column offset within the joined tuple
	ncols    int
	access   accessPath
	onFilter EvalFn // LEFT JOIN gating predicate (conjuncts from ON)
	filter   EvalFn // WHERE conjuncts fully bound at this level
	leftJoin bool
}

// conjunct is one ANDed term of a WHERE/ON clause with bookkeeping about
// where it can be evaluated.
type conjunct struct {
	expr    parser.Expr
	fromOn  int // join level whose ON clause contributed it; -1 for WHERE
	level   int // earliest level at which all referenced columns are bound
	usable  bool
	compile EvalFn
}

// splitConjuncts flattens nested ANDs.
func splitConjuncts(e parser.Expr, out *[]parser.Expr) {
	if b, ok := e.(*parser.Binary); ok && b.Op == "AND" {
		splitConjuncts(b.L, out)
		splitConjuncts(b.R, out)
		return
	}
	*out = append(*out, e)
}

// planScans resolves the FROM/JOIN tables, assigns conjuncts to levels, and
// picks an access path per level.
func planScans(sel *parser.Select, r Resolver) ([]scanLevel, *tupleSchema, error) {
	type tableEntry struct {
		ref  parser.TableRef
		left bool
		on   parser.Expr
	}
	var entries []tableEntry
	for _, tr := range sel.From {
		entries = append(entries, tableEntry{ref: tr})
	}
	for _, j := range sel.Joins {
		entries = append(entries, tableEntry{ref: j.Table, left: j.Left, on: j.On})
	}
	if len(entries) == 0 {
		return nil, nil, fmt.Errorf("exec: SELECT without FROM is not supported")
	}

	schema := &tupleSchema{}
	levels := make([]scanLevel, 0, len(entries))
	for _, e := range entries {
		tbl, err := r.StorageTable(e.ref.Table)
		if err != nil {
			return nil, nil, err
		}
		alias := e.ref.Alias
		if alias == "" {
			alias = e.ref.Table
		}
		lv := scanLevel{tbl: tbl, offset: schema.width, ncols: len(tbl.Meta.Columns), leftJoin: e.left}
		schema.bind(alias, tbl.Meta)
		levels = append(levels, lv)
	}

	// Gather conjuncts from WHERE and every ON clause.
	var conjs []conjunct
	add := func(e parser.Expr, fromOn int) {
		if e == nil {
			return
		}
		var parts []parser.Expr
		splitConjuncts(e, &parts)
		for _, p := range parts {
			conjs = append(conjs, conjunct{expr: p, fromOn: fromOn})
		}
	}
	add(sel.Where, -1)
	for i, e := range entries {
		add(e.on, i)
	}

	// Assign each conjunct to the earliest level where it compiles.
	for ci := range conjs {
		c := &conjs[ci]
		assigned := false
		for lvl := 1; lvl <= len(levels); lvl++ {
			fn, err := compileExpr(c.expr, schema.prefix(lvl))
			if err == nil {
				c.level = lvl - 1
				c.compile = fn
				c.usable = true
				assigned = true
				break
			}
		}
		if !assigned {
			// Compile against the full schema to surface the real error.
			if _, err := compileExpr(c.expr, schema); err != nil {
				return nil, nil, err
			}
			return nil, nil, fmt.Errorf("exec: cannot place predicate %s", exprText(c.expr))
		}
		// An ON conjunct can never gate earlier than its join level.
		if c.fromOn >= 0 && c.level < c.fromOn {
			c.level = c.fromOn
			fn, err := compileExpr(c.expr, schema.prefix(c.fromOn+1))
			if err != nil {
				return nil, nil, err
			}
			c.compile = fn
		}
	}

	// Pick access paths and attach residual filters.
	for li := range levels {
		lv := &levels[li]
		lv.access = chooseAccess(lv, li, schema, conjs)
		var onFns, whereFns []EvalFn
		for _, c := range conjs {
			if c.level != li {
				continue
			}
			if lv.leftJoin && c.fromOn != li {
				whereFns = append(whereFns, c.compile)
			} else if lv.leftJoin {
				onFns = append(onFns, c.compile)
			} else {
				whereFns = append(whereFns, c.compile)
			}
		}
		lv.onFilter = andAll(onFns)
		lv.filter = andAll(whereFns)
	}
	return levels, schema, nil
}

// andAll combines predicate closures with AND short-circuiting; nil when the
// list is empty.
func andAll(fns []EvalFn) EvalFn {
	switch len(fns) {
	case 0:
		return nil
	case 1:
		return fns[0]
	}
	return func(env *Env) (sqlval.Value, error) {
		for _, fn := range fns {
			v, err := fn(env)
			if err != nil {
				return sqlval.Value{}, err
			}
			if !truthy(v) {
				return sqlval.NewBool(false), nil
			}
		}
		return sqlval.NewBool(true), nil
	}
}

// colEq describes one sargable conjunct on a level's column: col = valueFn,
// or a range bound.
type colBound struct {
	eq EvalFn
	lo EvalFn
	hi EvalFn
}

// chooseAccess inspects the conjuncts assigned at this level for sargable
// predicates on the level's own columns whose other side is computable from
// outer levels, then picks the index with the longest usable equality
// prefix (plus an optional range on the following column).
func chooseAccess(lv *scanLevel, li int, schema *tupleSchema, conjs []conjunct) accessPath {
	outer := schema.prefix(li) // bindings available before this level
	bounds := map[int]*colBound{}
	bound := func(col int) *colBound {
		b, ok := bounds[col]
		if !ok {
			b = &colBound{}
			bounds[col] = b
		}
		return b
	}
	// ownColumn maps an expression to this level's column ordinal when the
	// expression is a bare reference to one of this level's columns.
	ownColumn := func(e parser.Expr) int {
		cr, ok := e.(*parser.ColumnRef)
		if !ok {
			return -1
		}
		pos, err := schema.prefix(li+1).resolve(cr.Table, cr.Name)
		if err != nil || pos < lv.offset || pos >= lv.offset+lv.ncols {
			return -1
		}
		// Unqualified names could also resolve into an outer table; the
		// resolve above already errors on ambiguity.
		return pos - lv.offset
	}
	for _, c := range conjs {
		if c.level != li {
			continue
		}
		switch x := c.expr.(type) {
		case *parser.Binary:
			if x.Op != "=" && x.Op != "<" && x.Op != "<=" && x.Op != ">" && x.Op != ">=" {
				continue
			}
			col, rhs := ownColumn(x.L), x.R
			op := x.Op
			if col < 0 {
				// Try the mirrored form: value op col.
				col, rhs = ownColumn(x.R), x.L
				switch op {
				case "<":
					op = ">"
				case "<=":
					op = ">="
				case ">":
					op = "<"
				case ">=":
					op = "<="
				}
			}
			if col < 0 {
				continue
			}
			fn, err := compileExpr(rhs, outer)
			if err != nil {
				continue // rhs needs this level's own columns; not sargable
			}
			b := bound(col)
			switch op {
			case "=":
				b.eq = fn
			case "<", "<=":
				b.hi = fn
			case ">", ">=":
				b.lo = fn
			}
		case *parser.Between:
			col := ownColumn(x.X)
			if col < 0 || x.Not {
				continue
			}
			loFn, err1 := compileExpr(x.Lo, outer)
			hiFn, err2 := compileExpr(x.Hi, outer)
			if err1 != nil || err2 != nil {
				continue
			}
			b := bound(col)
			b.lo, b.hi = loFn, hiFn
		}
	}
	if len(bounds) == 0 {
		return accessPath{kind: accessSeq}
	}

	type candidate struct {
		path  accessPath
		score int
	}
	best := candidate{path: accessPath{kind: accessSeq}, score: 0}
	meta := lv.tbl.Meta
	consider := func(idx *catalog.Index, kind accessKind, ord int) {
		var eq []EvalFn
		k := 0
		for ; k < len(idx.Columns); k++ {
			b, ok := bounds[idx.Columns[k]]
			if !ok || b.eq == nil {
				break
			}
			eq = append(eq, b.eq)
		}
		kinds := make([]sqlval.Kind, len(idx.Columns))
		for i, c := range idx.Columns {
			kinds[i] = meta.Columns[c].Kind
		}
		path := accessPath{kind: kind, ord: ord, eq: eq, kinds: kinds}
		score := k * 4
		if k == len(idx.Columns) && idx.Unique && k > 0 {
			if kind == accessPrimary {
				path.kind = accessPrimaryEq
			}
			score += 3 // unique exact match beats everything
		} else if k < len(idx.Columns) {
			if b, ok := bounds[idx.Columns[k]]; ok && (b.lo != nil || b.hi != nil) {
				path.lo, path.hi = b.lo, b.hi
				score += 2
			}
		}
		if score > best.score {
			best = candidate{path: path, score: score}
		}
	}
	if len(meta.PKCols) > 0 {
		consider(meta.Indexes[0], accessPrimary, 0)
	}
	for ord, idx := range lv.tbl.SecondaryIndexes() {
		consider(idx, accessSecondary, ord)
	}
	return best.path
}

// evalKeyInto evaluates access-path bound closures into buf, reusing its
// backing array. Callers own buf only until the next evaluation on the same
// buffer; storage never retains probe keys past the lookup/scan call.
func evalKeyInto(buf []sqlval.Value, fns []EvalFn, env *Env) ([]sqlval.Value, error) {
	buf = buf[:0]
	for _, fn := range fns {
		v, err := fn(env)
		if err != nil {
			return nil, err
		}
		buf = append(buf, v)
	}
	return buf, nil
}

// scanBounds builds the encoded tree bounds of the access path into the
// level's scratch: eqPrefix [+lo] up to eqPrefix [+hi] +Top. A bare prefix
// is an inclusive lower bound (shorter composites sort before their
// extensions) and the Top pad makes the upper bound inclusive over longer
// physical keys. Each value is converted to its column's kind first
// (sqlval.KeyBound). A value with no exact conversion widens the bounds to
// the enclosing prefix — the equality values before it, or all of them for
// a range bound — which is safe because the level's filter re-checks every
// conjunct. exact reports that every equality value converted, so that from
// is the whole equality key. The btree range scans compare against the
// bounds during iteration but never retain them, and nested levels use
// their own scratch.
func scanBounds(path *accessPath, env *Env, sc *levelScratch) (from, to []byte, exact bool, err error) {
	sc.from = sc.from[:0]
	exact = true
	for i, fn := range path.eq {
		if sc.from, exact, err = appendBound(sc.from, fn, path.kinds[i], exact, env); err != nil {
			return nil, nil, false, err
		}
	}
	sc.to = append(sc.to[:0], sc.from...)
	if path.lo != nil {
		if sc.from, _, err = appendBound(sc.from, path.lo, path.kinds[len(path.eq)], exact, env); err != nil {
			return nil, nil, false, err
		}
	}
	if path.hi != nil {
		if sc.to, _, err = appendBound(sc.to, path.hi, path.kinds[len(path.eq)], exact, env); err != nil {
			return nil, nil, false, err
		}
	}
	sc.to = sqlval.AppendKey(sc.to, sqlval.Top())
	from, to = sc.from, sc.to
	if len(from) == 0 {
		from = nil
	}
	if len(to) == 1 {
		to = nil // only the Top pad: open upper bound
	}
	return from, to, exact, nil
}

// appendBound evaluates one bound value and, when on and the value converts
// exactly to the column's kind k, appends its encoding to dst; ok reports
// that it did. The value is evaluated either way, so that its errors
// surface as they would without the index.
func appendBound(dst []byte, fn EvalFn, k sqlval.Kind, on bool, env *Env) (_ []byte, ok bool, err error) {
	v, err := fn(env)
	if err != nil || !on {
		return dst, false, err
	}
	b, ok := sqlval.KeyBound(v, k)
	if ok {
		dst = sqlval.AppendKey(dst, b)
	}
	return dst, ok, nil
}
