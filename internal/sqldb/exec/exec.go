package exec

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"benchpress/internal/sqldb/parser"
	"benchpress/internal/sqldb/storage"
	"benchpress/internal/sqldb/txn"
	"benchpress/internal/sqlval"
)

// Result is the outcome of executing a statement.
type Result struct {
	Columns      []string
	Rows         [][]sqlval.Value
	RowsAffected int
	LastInsertID int64
}

// Plan is a compiled, reusable statement. Plans are safe for concurrent use
// once compiled: execution state lives on the stack of Execute.
type Plan interface {
	Execute(tx *txn.Txn, params []sqlval.Value) (*Result, error)
}

// errStopScan is the internal sentinel an emit callback returns to end a
// pushed-down-limit scan early.
var errStopScan = fmt.Errorf("exec: stop scan")

// Compile turns a parsed DML statement into an executable plan. DDL and
// transaction-control statements are handled by the engine, not here.
func Compile(stmt parser.Statement, r Resolver) (Plan, error) {
	switch s := stmt.(type) {
	case *parser.Select:
		return compileSelect(s, r)
	case *parser.Insert:
		return compileInsert(s, r)
	case *parser.Update:
		return compileUpdate(s, r)
	case *parser.Delete:
		return compileDelete(s, r)
	default:
		return nil, fmt.Errorf("exec: cannot compile %T", stmt)
	}
}

// ---------------------------------------------------------------- SELECT

type projection struct {
	name string
	fn   EvalFn
}

type selectPlan struct {
	levels  []scanLevel
	schema  *tupleSchema
	projs   []projection
	aggs    []aggCall   // non-empty means grouped/aggregate query
	groupBy []EvalFn    // group key expressions (base env)
	having  EvalFn      // agg-mode predicate
	orderBy []orderSpec // resolved ORDER BY
	limit   EvalFn
	offset  EvalFn
	// orderByOutput is true when sort keys index into the output row
	// (aggregate queries); otherwise sort keys are computed per base tuple.
	orderByOutput bool
	distinct      bool
	forUpdate     bool
	// limitPushdown stops the scan as soon as offset+limit rows qualify.
	// Enabled when output order is the scan order (ORDER BY satisfied by
	// the chosen index, or absent) and no post-processing reorders rows.
	// Critical for FOR UPDATE...LIMIT: without it the scan would lock or
	// claim every qualifying row before discarding all but the first.
	limitPushdown bool
	// colNames is the precomputed output header, shared by every Result
	// this plan produces. Callers treat Result.Columns as read-only.
	colNames []string
	// pool recycles selectExec state (environment, scratch buffers, emit
	// accumulators) across executions.
	pool sync.Pool
	// rowHint is the row count of the previous execution, used as the
	// capacity hint for the next Result.Rows allocation.
	rowHint atomic.Int64
}

// selectExec is one execution's state: the expression environment plus the
// accumulators the per-tuple emit path writes. Keeping these as fields of a
// pooled struct (instead of locals captured by an emit closure) removes the
// per-Execute closure and captured-variable boxing from the hot path.
type selectExec struct {
	p          *selectPlan
	env        Env
	rows       [][]sqlval.Value // projected output (pre order/limit)
	sortKeys   [][]sqlval.Value
	seen       map[string]bool // distinct filter
	groups     map[string]*groupState
	groupOrder []string
	grouped    bool
	rowCap     int // emit stops the scan at this many rows; -1 = unbounded
	// arena is the output-row allocator: projected rows are carved out of
	// BatchSize-row chunks, turning one allocation per row into one per
	// chunk. The chunk tail survives pooling — carved rows escape into
	// Result.Rows, but the unconsumed remainder is still exclusively ours,
	// because every carve is capacity-capped and starts past the last one.
	arena []sqlval.Value
	// ids and vers are an UPDATE/DELETE's matched rows and their visible
	// versions (collectMatches); img is the new image an UPDATE builds,
	// handed to txn.Update, which encodes it and keeps nothing. All three
	// are statement scratch, reused across executions.
	ids  []storage.RowID
	vers []*storage.Version
	img  []sqlval.Value
}

// allocRow carves an n-value row out of the arena chunk. The three-index cap
// makes the carved slice appear full to append, so callers can never grow it
// into a neighboring row.
func (se *selectExec) allocRow(n int) []sqlval.Value {
	if len(se.arena)+n > cap(se.arena) {
		se.arena = make([]sqlval.Value, 0, storage.BatchSize*n)
	}
	m := len(se.arena)
	se.arena = se.arena[:m+n]
	return se.arena[m : m+n : m+n]
}

func (p *selectPlan) getExec(params []sqlval.Value) *selectExec {
	se, _ := p.pool.Get().(*selectExec)
	if se == nil {
		se = &selectExec{p: p}
	}
	se.env.reset(p.schema.width, len(p.levels), params)
	return se
}

func (p *selectPlan) putExec(se *selectExec) {
	se.env.Params = nil
	se.env.AggVals = nil
	// Decoded values alias row records: drop them so pooled state pins
	// no superseded image.
	clear(se.env.Vals)
	clear(se.vers)
	clear(se.img)
	se.ids, se.vers, se.img = se.ids[:0], se.vers[:0], se.img[:0]
	// rows escapes as Result.Rows and the rest hold caller-visible or
	// query-sized data; drop them rather than reuse.
	se.rows = nil
	se.sortKeys = nil
	se.seen = nil
	se.groups = nil
	se.groupOrder = nil
	p.pool.Put(se)
}

type orderSpec struct {
	fn   EvalFn // non-output ordering
	col  int    // output ordering: column position
	desc bool
}

func compileSelect(sel *parser.Select, r Resolver) (*selectPlan, error) {
	levels, schema, err := planScans(sel, r)
	if err != nil {
		return nil, err
	}
	p := &selectPlan{levels: levels, schema: schema, distinct: sel.Distinct, forUpdate: sel.ForUpdate}

	// Expand projections; compile in aggregate mode so aggregate calls
	// allocate slots.
	for _, se := range sel.Exprs {
		if se.Star {
			for _, bt := range schema.tables {
				if se.Table != "" && !strings.EqualFold(se.Table, bt.alias) {
					continue
				}
				offset := bt.offset
				for i, col := range bt.meta.Columns {
					pos := offset + i
					p.projs = append(p.projs, projection{
						name: col.Name,
						fn:   func(env *Env) (sqlval.Value, error) { return env.Vals[pos], nil },
					})
				}
			}
			continue
		}
		fn, err := compileAggExpr(se.Expr, schema, &p.aggs)
		if err != nil {
			return nil, err
		}
		name := se.Alias
		if name == "" {
			if cr, ok := se.Expr.(*parser.ColumnRef); ok {
				name = cr.Name
			} else {
				name = exprText(se.Expr)
			}
		}
		p.projs = append(p.projs, projection{name: name, fn: fn})
	}

	for _, g := range sel.GroupBy {
		fn, err := compileExpr(g, schema)
		if err != nil {
			return nil, err
		}
		p.groupBy = append(p.groupBy, fn)
	}
	if sel.Having != nil {
		fn, err := compileAggExpr(sel.Having, schema, &p.aggs)
		if err != nil {
			return nil, err
		}
		p.having = fn
	}
	if len(p.groupBy) > 0 && len(p.aggs) == 0 && !p.distinct {
		// GROUP BY without aggregates behaves like DISTINCT over the keys.
		p.distinct = true
	}

	grouped := len(p.aggs) > 0 || len(p.groupBy) > 0
	p.orderByOutput = grouped
	// Order-by pushdown: when the single scan level's index already yields
	// rows in the requested order, the sort (and with it the need to
	// materialize every row before LIMIT) disappears. A sequential scan has
	// no inherent order, but if some index covers the ORDER BY columns it
	// is worth switching to it for the ordering alone — essential for
	// `ORDER BY pk LIMIT n FOR UPDATE`, which must not claim the whole
	// table.
	if !grouped && !p.distinct && len(levels) == 1 && len(sel.OrderBy) > 0 {
		lv := &p.levels[0]
		if lv.access.kind == accessSeq {
			switchToOrderingIndex(sel.OrderBy, lv, schema)
		}
		if desc, ok := orderSatisfiedByIndex(sel.OrderBy, lv, schema); ok {
			lv.access.desc = desc
			sel = shallowCopyWithoutOrder(sel)
		}
	}
	for _, oi := range sel.OrderBy {
		spec := orderSpec{desc: oi.Desc, col: -1}
		if grouped {
			col, err := resolveOutputOrder(oi.Expr, sel, p)
			if err != nil {
				return nil, err
			}
			spec.col = col
		} else if lit, ok := oi.Expr.(*parser.Literal); ok && lit.Val.Kind() == sqlval.KindInt {
			pos := int(lit.Val.Int()) - 1
			if pos < 0 || pos >= len(p.projs) {
				return nil, fmt.Errorf("exec: ORDER BY position %d out of range", pos+1)
			}
			spec.col = pos
			p.orderByOutput = true
		} else {
			fn, err := compileOrderExpr(oi.Expr, sel, p)
			if err != nil {
				return nil, err
			}
			spec.fn = fn
		}
		p.orderBy = append(p.orderBy, spec)
	}
	if sel.Limit != nil {
		fn, err := compileExpr(sel.Limit, &tupleSchema{})
		if err != nil {
			return nil, err
		}
		p.limit = fn
	}
	if sel.Offset != nil {
		fn, err := compileExpr(sel.Offset, &tupleSchema{})
		if err != nil {
			return nil, err
		}
		p.offset = fn
	}
	p.limitPushdown = p.limit != nil && !grouped && !p.distinct && len(p.orderBy) == 0
	p.colNames = make([]string, len(p.projs))
	for i, pr := range p.projs {
		p.colNames[i] = pr.name
	}
	return p, nil
}

// shallowCopyWithoutOrder clones the select without its ORDER BY so that the
// remainder of compilation sees the pushed-down form. The parse cache holds
// the original AST, which must not be mutated.
func shallowCopyWithoutOrder(sel *parser.Select) *parser.Select {
	cp := *sel
	cp.OrderBy = nil
	return &cp
}

// orderSatisfiedByIndex reports whether every ORDER BY item is a bare column
// continuing the chosen index's column list right after the equality prefix,
// with one uniform direction. When it holds, scanning the index in that
// direction yields rows already ordered.
func orderSatisfiedByIndex(items []parser.OrderItem, lv *scanLevel, schema *tupleSchema) (desc, ok bool) {
	var idxCols []int
	switch lv.access.kind {
	case accessPrimary, accessPrimaryEq:
		idxCols = lv.tbl.Meta.PKCols
	case accessSecondary:
		idxCols = lv.tbl.SecondaryIndexes()[lv.access.ord].Columns
	default:
		return false, false
	}
	start := len(lv.access.eq)
	if len(items) > len(idxCols)-start {
		return false, false
	}
	desc = items[0].Desc
	for i, it := range items {
		if it.Desc != desc {
			return false, false
		}
		cr, isCol := it.Expr.(*parser.ColumnRef)
		if !isCol {
			return false, false
		}
		pos, err := schema.resolve(cr.Table, cr.Name)
		if err != nil || pos-lv.offset != idxCols[start+i] {
			return false, false
		}
	}
	// A range bound on the first sort column is fine (scan order holds);
	// anything else past the prefix is not possible by construction.
	return desc, true
}

// switchToOrderingIndex upgrades a sequential scan to a full index scan when
// some index's leading columns cover the ORDER BY list, so that the order
// (and any LIMIT) can be pushed down.
func switchToOrderingIndex(items []parser.OrderItem, lv *scanLevel, schema *tupleSchema) {
	try := func(path accessPath) bool {
		saved := lv.access
		lv.access = path
		if _, ok := orderSatisfiedByIndex(items, lv, schema); ok {
			return true
		}
		lv.access = saved
		return false
	}
	if len(lv.tbl.Meta.PKCols) > 0 && try(accessPath{kind: accessPrimary}) {
		return
	}
	for ord := range lv.tbl.SecondaryIndexes() {
		if try(accessPath{kind: accessSecondary, ord: ord}) {
			return
		}
	}
}

// resolveOutputOrder maps an ORDER BY item of a grouped query onto an output
// column: by position, alias, or matching expression text.
func resolveOutputOrder(e parser.Expr, sel *parser.Select, p *selectPlan) (int, error) {
	if lit, ok := e.(*parser.Literal); ok && lit.Val.Kind() == sqlval.KindInt {
		pos := int(lit.Val.Int()) - 1
		if pos < 0 || pos >= len(p.projs) {
			return 0, fmt.Errorf("exec: ORDER BY position %d out of range", pos+1)
		}
		return pos, nil
	}
	if cr, ok := e.(*parser.ColumnRef); ok && cr.Table == "" {
		for i, se := range sel.Exprs {
			if strings.EqualFold(se.Alias, cr.Name) {
				return i, nil
			}
		}
	}
	want := exprText(e)
	for i, se := range sel.Exprs {
		if se.Expr != nil && exprText(se.Expr) == want {
			return i, nil
		}
	}
	return 0, fmt.Errorf("exec: ORDER BY %s does not match any output column of the grouped query", want)
}

// compileOrderExpr compiles a non-grouped ORDER BY item, resolving aliases to
// their select expressions first.
func compileOrderExpr(e parser.Expr, sel *parser.Select, p *selectPlan) (EvalFn, error) {
	if cr, ok := e.(*parser.ColumnRef); ok && cr.Table == "" {
		for _, se := range sel.Exprs {
			if strings.EqualFold(se.Alias, cr.Name) {
				return compileExpr(se.Expr, p.schema)
			}
		}
	}
	return compileExpr(e, p.schema)
}

// emit handles one complete tuple: accumulate it into its group, or project
// it into the output rows (applying DISTINCT and collecting sort keys).
func (se *selectExec) emit() error {
	p := se.p
	env := &se.env
	if se.grouped {
		env.keyBytes = env.keyBytes[:0]
		if len(p.groupBy) > 0 {
			kv, err := evalKeyInto(env.keyBuf, p.groupBy, env)
			if err != nil {
				return err
			}
			env.keyBuf = kv
			env.keyBytes = sqlval.AppendKey(env.keyBytes, kv...)
		}
		g, ok := se.groups[string(env.keyBytes)]
		if !ok {
			key := string(env.keyBytes)
			g = newGroupState(p.aggs, env.Vals)
			se.groups[key] = g
			se.groupOrder = append(se.groupOrder, key)
		}
		return g.accumulate(p.aggs, env)
	}
	out := se.allocRow(len(p.projs))
	for i, pr := range p.projs {
		v, err := pr.fn(env)
		if err != nil {
			return err
		}
		out[i] = v
	}
	if p.distinct {
		env.keyBytes = sqlval.AppendKey(env.keyBytes[:0], out...)
		if se.seen[string(env.keyBytes)] {
			// Rebate the carve: out never escaped, so the next row may
			// reuse its arena space.
			se.arena = se.arena[:len(se.arena)-len(out)]
			return nil
		}
		se.seen[string(env.keyBytes)] = true
	}
	if len(p.orderBy) > 0 && !p.orderByOutput {
		keys := make([]sqlval.Value, len(p.orderBy))
		for i, os := range p.orderBy {
			v, err := os.fn(env)
			if err != nil {
				return err
			}
			keys[i] = v
		}
		se.sortKeys = append(se.sortKeys, keys)
	}
	se.rows = append(se.rows, out)
	if se.rowCap >= 0 && len(se.rows) >= se.rowCap {
		return errStopScan
	}
	return nil
}

// Execute runs the select.
func (p *selectPlan) Execute(tx *txn.Txn, params []sqlval.Value) (*Result, error) {
	se := p.getExec(params)
	defer p.putExec(se)
	env := &se.env
	res := &Result{Columns: p.colNames}

	se.grouped = len(p.aggs) > 0 || len(p.groupBy) > 0
	// With limit pushdown, stop scanning once offset+limit rows qualify.
	se.rowCap = -1
	if p.limitPushdown {
		lv, err := p.limit(env)
		if err != nil {
			return nil, err
		}
		se.rowCap = int(lv.Int())
		if p.offset != nil {
			ov, err := p.offset(env)
			if err != nil {
				return nil, err
			}
			se.rowCap += int(ov.Int())
		}
		if se.rowCap < 0 {
			se.rowCap = 0
		}
	}
	if hint := int(p.rowHint.Load()); hint > 0 {
		se.rows = make([][]sqlval.Value, 0, hint)
	}
	if p.distinct {
		se.seen = map[string]bool{}
	}
	if se.grouped {
		se.groups = map[string]*groupState{}
	}

	if se.rowCap == 0 {
		// LIMIT 0: do not touch (or lock) any rows.
	} else if err := p.scan(tx, se, 0); err != nil && err != errStopScan {
		return nil, err
	}

	if se.grouped {
		// Zero-group aggregate query (no GROUP BY, no input rows) still
		// produces one row of aggregates over the empty set.
		if len(se.groups) == 0 && len(p.groupBy) == 0 {
			se.groups[""] = newGroupState(p.aggs, make([]sqlval.Value, p.schema.width))
			se.groupOrder = append(se.groupOrder, "")
		}
		for _, key := range se.groupOrder {
			g := se.groups[key]
			env.Vals = g.firstRow
			env.AggVals = g.finalize(p.aggs)
			if p.having != nil {
				hv, err := p.having(env)
				if err != nil {
					return nil, err
				}
				if !truthy(hv) {
					continue
				}
			}
			out := make([]sqlval.Value, len(p.projs))
			for i, pr := range p.projs {
				v, err := pr.fn(env)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			se.rows = append(se.rows, out)
		}
	}
	rows, sortKeys := se.rows, se.sortKeys

	// Order.
	if len(p.orderBy) > 0 {
		if p.orderByOutput {
			sort.SliceStable(rows, func(i, j int) bool {
				for _, os := range p.orderBy {
					c := sqlval.Compare(rows[i][os.col], rows[j][os.col])
					if os.desc {
						c = -c
					}
					if c != 0 {
						return c < 0
					}
				}
				return false
			})
		} else {
			idx := make([]int, len(rows))
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(a, b int) bool {
				ka, kb := sortKeys[idx[a]], sortKeys[idx[b]]
				for i, os := range p.orderBy {
					c := sqlval.Compare(ka[i], kb[i])
					if os.desc {
						c = -c
					}
					if c != 0 {
						return c < 0
					}
				}
				return false
			})
			sorted := make([][]sqlval.Value, len(rows))
			for i, j := range idx {
				sorted[i] = rows[j]
			}
			rows = sorted
		}
	}

	// Offset / limit.
	if p.offset != nil {
		v, err := p.offset(env)
		if err != nil {
			return nil, err
		}
		n := int(v.Int())
		if n > len(rows) {
			n = len(rows)
		}
		rows = rows[n:]
	}
	if p.limit != nil {
		v, err := p.limit(env)
		if err != nil {
			return nil, err
		}
		if n := int(v.Int()); n >= 0 && n < len(rows) {
			rows = rows[:n]
		}
	}
	res.Rows = rows
	hint := int64(len(rows))
	if hint > 1024 {
		hint = 1024 // bound pre-allocation for occasional huge results
	}
	p.rowHint.Store(hint)
	return res, nil
}

// scan recursively joins levels depth-first, invoking se.emit for each
// complete tuple that passes all filters.
func (p *selectPlan) scan(tx *txn.Txn, se *selectExec, li int) error {
	if li == len(p.levels) {
		return se.emit()
	}
	env := &se.env
	lv := &p.levels[li]
	matched := false
	var scanErr error
	// Plain reads outside the Locking engine resolve visibility directly
	// against the transaction's view — one liveness check per scan instead
	// of a full Read (done-check, mode switch, claim test) per row.
	view, fast := tx.FastReadView()
	fast = fast && !p.forUpdate
	process := func(e storage.IndexEntry, vk verifyKind, row *storage.Row) bool {
		var v *storage.Version
		if fast {
			if row == nil {
				var ok bool
				if row, ok = lv.tbl.Row(e.ID); !ok {
					return true
				}
			}
			if v = view.Visible(row); v == nil {
				return true
			}
		} else {
			var err error
			if v, err = tx.Read(lv.tbl, e.ID, p.forUpdate); err != nil {
				scanErr = err
				return false
			}
			if v == nil {
				return true
			}
		}
		// Decode straight into this level's slots; the capped slice keeps
		// the decode from spilling into the next level's.
		data := v.DecodeInto(env.Vals[lv.offset : lv.offset : lv.offset+lv.ncols])
		if !entryMatches(lv, e, vk, data) {
			// Stale index entry: the visible image no longer carries the
			// entry's key (an update moved the row within the index).
			return true
		}
		if lv.onFilter != nil {
			v, err := lv.onFilter(env)
			if err != nil {
				scanErr = err
				return false
			}
			if !truthy(v) {
				return true
			}
		}
		matched = true
		if lv.filter != nil {
			v, err := lv.filter(env)
			if err != nil {
				scanErr = err
				return false
			}
			if !truthy(v) {
				return true
			}
		}
		if err := p.scan(tx, se, li+1); err != nil {
			scanErr = err
			return false
		}
		return true
	}

	if err := scanAccess(lv, env, &env.scratch[li], fast, process); err != nil {
		return err
	}
	if scanErr != nil {
		return scanErr
	}
	if lv.leftJoin && !matched {
		// Null-extend the inner side, then apply WHERE-level filters.
		for i := 0; i < lv.ncols; i++ {
			env.Vals[lv.offset+i] = sqlval.Null()
		}
		if lv.filter != nil {
			v, err := lv.filter(env)
			if err != nil {
				return err
			}
			if !truthy(v) {
				return nil
			}
		}
		return p.scan(tx, se, li+1)
	}
	return nil
}

// verifyKind tells process how to check a candidate row image against the
// index entry that produced it. Passing the entry by value with a kind tag
// (instead of a per-entry verification closure) keeps range scans free of
// per-row allocations.
type verifyKind uint8

const (
	verifyNone verifyKind = iota
	verifyPrim
	verifySec
)

// entryMatches reports whether the visible row image still carries the index
// entry's key. Updates leave stale entries behind by design; readers skip
// them here.
func entryMatches(lv *scanLevel, e storage.IndexEntry, vk verifyKind, data []sqlval.Value) bool {
	switch vk {
	case verifyPrim:
		return lv.tbl.VerifyPrimary(e, data)
	case verifySec:
		return lv.tbl.VerifySecondary(lv.access.ord, e, data)
	}
	return true
}

// scanAccess drives one level's access path, feeding candidate index entries
// to process (which returns false to stop). Probe keys and range bounds are
// built in sc, this level's scratch, so repeated probes (inner join levels,
// prepared-statement re-execution) allocate nothing.
//
// Range scans are batch-oriented: the qualifying index entries are
// materialized into sc.entries a chunk at a time under the index latch,
// then consumed latch-free (scanRange). That holds the latch once per chunk
// instead of once per entry, and lets process acquire row locks (the slow
// path) without an index latch held. Sequential scans on the fast read path
// pull rows BatchSize at a time through sc.batch, so process receives the
// row pointer directly and skips the per-row id decode and slot load of
// Table.Row.
func scanAccess(lv *scanLevel, env *Env, sc *levelScratch, fast bool, process func(e storage.IndexEntry, vk verifyKind, row *storage.Row) bool) error {
	switch lv.access.kind {
	case accessPrimaryEq, accessPrimary, accessSecondary:
		from, to, exact, err := scanBounds(&lv.access, env, sc)
		if err != nil {
			return err
		}
		if lv.access.kind == accessPrimaryEq && exact {
			if id, ok := lv.tbl.PrimaryLookup(from); ok {
				process(storage.IndexEntry{Key: from, ID: id}, verifyPrim, nil)
			}
			return nil
		}
		scanRange(lv, sc, from, to, process)
		return nil
	default:
		// Sequential scan, one latch-free row-store segment at a time.
		if fast {
			b := sc.batch
			if b == nil {
				b = new(storage.RowBatch)
				sc.batch = b
			}
		batched:
			for g, n := 0, lv.tbl.Segments(); g < n; g++ {
				for cursor := int64(0); cursor >= 0; {
					cursor = lv.tbl.ScanBatch(g, cursor, b)
					for i := 0; i < b.N; i++ {
						if !process(storage.IndexEntry{ID: b.IDs[i]}, verifyNone, b.Rows[i]) {
							break batched
						}
					}
				}
			}
			// Drop the row pointers so pooled executor state does not pin
			// reclaimed rows between executions.
			*b = storage.RowBatch{}
			return nil
		}
		// Locking / FOR UPDATE path: per-row visit; process re-reads the
		// row under the transaction's concurrency control. The callback is
		// hoisted out of the segment loop so it is allocated once per scan.
		visit := func(id storage.RowID, _ *storage.Row) bool {
			return process(storage.IndexEntry{ID: id}, verifyNone, nil)
		}
		for g, n := 0, lv.tbl.Segments(); g < n; g++ {
			if !lv.tbl.ScanSegment(g, visit) {
				break
			}
		}
		return nil
	}
}

// firstRangeChunk is the size of a range scan's first chunk. Chunks double
// up to maxRetainedEntries, so the entry scratch never outgrows what pooled
// executor state keeps.
const firstRangeChunk = 32

// scanRange streams one index range to process in chunks that grow from
// firstRangeChunk to maxRetainedEntries: each chunk is one latch hold, and
// the next resumes strictly after the last key handed out. A LIMIT that
// stops the scan early (process returns false) therefore materializes one
// small chunk, not the whole range, while a long scan still takes few latch
// holds.
func scanRange(lv *scanLevel, sc *levelScratch, from, to []byte, process func(e storage.IndexEntry, vk verifyKind, row *storage.Row) bool) {
	vk := verifyPrim
	if lv.access.kind == accessSecondary {
		vk = verifySec
	}
	var after []byte
	for chunk := firstRangeChunk; ; chunk = min(2*chunk, maxRetainedEntries) {
		if vk == verifyPrim {
			sc.entries = lv.tbl.AppendPrimaryRange(sc.entries[:0], from, to, after, lv.access.desc, chunk)
		} else {
			sc.entries = lv.tbl.AppendSecondaryRange(sc.entries[:0], lv.access.ord, from, to, after, lv.access.desc, chunk)
		}
		for i := range sc.entries {
			if !process(sc.entries[i], vk, nil) {
				sc.releaseEntries()
				return
			}
		}
		if len(sc.entries) < chunk {
			break
		}
		after = sc.entries[len(sc.entries)-1].Key
	}
	sc.releaseEntries()
}

// ------------------------------------------------------------- aggregation

// groupState accumulates one group's aggregates.
type groupState struct {
	firstRow []sqlval.Value
	counts   []int64
	sums     []sqlval.Value
	mins     []sqlval.Value
	maxs     []sqlval.Value
	distinct []map[string]bool
}

func newGroupState(aggs []aggCall, row []sqlval.Value) *groupState {
	g := &groupState{
		firstRow: append([]sqlval.Value(nil), row...),
		counts:   make([]int64, len(aggs)),
		sums:     make([]sqlval.Value, len(aggs)),
		mins:     make([]sqlval.Value, len(aggs)),
		maxs:     make([]sqlval.Value, len(aggs)),
	}
	g.distinct = make([]map[string]bool, len(aggs))
	for i, a := range aggs {
		if a.distinct {
			g.distinct[i] = map[string]bool{}
		}
		g.sums[i] = sqlval.Null()
		g.mins[i] = sqlval.Null()
		g.maxs[i] = sqlval.Null()
	}
	return g
}

func (g *groupState) accumulate(aggs []aggCall, env *Env) error {
	for i, a := range aggs {
		if a.star {
			g.counts[i]++
			continue
		}
		v, err := a.arg(env)
		if err != nil {
			return err
		}
		if v.IsNull() {
			continue
		}
		if g.distinct[i] != nil {
			env.keyBytes = sqlval.AppendKey(env.keyBytes[:0], v)
			if g.distinct[i][string(env.keyBytes)] {
				continue
			}
			g.distinct[i][string(env.keyBytes)] = true
		}
		g.counts[i]++
		switch a.fn {
		case "SUM", "AVG":
			if g.sums[i].IsNull() {
				g.sums[i] = v
			} else if g.sums[i], err = sqlval.Add(g.sums[i], v); err != nil {
				return err
			}
		case "MIN":
			if g.mins[i].IsNull() || sqlval.Compare(v, g.mins[i]) < 0 {
				g.mins[i] = v
			}
		case "MAX":
			if g.maxs[i].IsNull() || sqlval.Compare(v, g.maxs[i]) > 0 {
				g.maxs[i] = v
			}
		}
	}
	return nil
}

func (g *groupState) finalize(aggs []aggCall) []sqlval.Value {
	out := make([]sqlval.Value, len(aggs))
	for i, a := range aggs {
		switch a.fn {
		case "COUNT":
			out[i] = sqlval.NewInt(g.counts[i])
		case "SUM":
			out[i] = g.sums[i]
		case "AVG":
			if g.counts[i] == 0 || g.sums[i].IsNull() {
				out[i] = sqlval.Null()
			} else {
				out[i] = sqlval.NewFloat(g.sums[i].Float() / float64(g.counts[i]))
			}
		case "MIN":
			out[i] = g.mins[i]
		case "MAX":
			out[i] = g.maxs[i]
		}
	}
	return out
}

// ---------------------------------------------------------------- INSERT

type insertPlan struct {
	tbl  *storage.Table
	rows [][]EvalFn // per row, per target column
	cols []int      // target column ordinals, parallel to each row's EvalFns
	pool sync.Pool  // *insertScratch
}

// insertScratch holds the per-execution state an INSERT can reuse, the new
// row's image included: txn.Insert encodes it into the version's record and
// keeps nothing.
type insertScratch struct {
	env      Env
	provided []bool
	data     []sqlval.Value
}

func compileInsert(ins *parser.Insert, r Resolver) (*insertPlan, error) {
	tbl, err := r.StorageTable(ins.Table)
	if err != nil {
		return nil, err
	}
	meta := tbl.Meta
	var cols []int
	if len(ins.Columns) == 0 {
		cols = make([]int, len(meta.Columns))
		for i := range cols {
			cols[i] = i
		}
	} else {
		for _, name := range ins.Columns {
			i := meta.ColumnIndex(name)
			if i < 0 {
				return nil, fmt.Errorf("exec: unknown column %q in INSERT into %s", name, meta.Name)
			}
			cols = append(cols, i)
		}
	}
	p := &insertPlan{tbl: tbl, cols: cols}
	empty := &tupleSchema{}
	for _, row := range ins.Rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("exec: INSERT into %s has %d values for %d columns", meta.Name, len(row), len(cols))
		}
		fns := make([]EvalFn, len(row))
		for i, e := range row {
			fn, err := compileExpr(e, empty)
			if err != nil {
				return nil, err
			}
			fns[i] = fn
		}
		p.rows = append(p.rows, fns)
	}
	return p, nil
}

func (p *insertPlan) Execute(tx *txn.Txn, params []sqlval.Value) (*Result, error) {
	st, _ := p.pool.Get().(*insertScratch)
	if st == nil {
		st = &insertScratch{}
	}
	meta := p.tbl.Meta
	env := &st.env
	env.Params = params
	if cap(st.provided) < len(meta.Columns) {
		st.provided = make([]bool, len(meta.Columns))
		st.data = make([]sqlval.Value, len(meta.Columns))
	}
	defer func() {
		env.Params = nil
		clear(st.data)
		p.pool.Put(st)
	}()
	res := &Result{}
	for _, fns := range p.rows {
		data := st.data[:len(meta.Columns)]
		clear(data)
		provided := st.provided[:len(meta.Columns)]
		for i := range provided {
			provided[i] = false
		}
		for i, fn := range fns {
			v, err := fn(env)
			if err != nil {
				return nil, err
			}
			data[p.cols[i]] = v
			provided[p.cols[i]] = true
		}
		for ci := range meta.Columns {
			col := &meta.Columns[ci]
			if !provided[ci] || data[ci].IsNull() {
				switch {
				case col.AutoInc && !provided[ci]:
					id := p.tbl.NextAutoInc()
					data[ci] = sqlval.NewInt(id)
					res.LastInsertID = id
				case col.HasDefault:
					data[ci] = col.Default
				default:
					data[ci] = sqlval.Null()
				}
			}
			if !data[ci].IsNull() {
				v, err := sqlval.CoerceKind(data[ci], col.Kind)
				if err != nil {
					return nil, fmt.Errorf("exec: column %s.%s: %w", meta.Name, col.Name, err)
				}
				if col.Size > 0 && v.Kind() == sqlval.KindString && len(v.Str()) > col.Size {
					v = sqlval.NewString(v.Str()[:col.Size])
				}
				data[ci] = v
				if col.AutoInc {
					p.tbl.BumpAutoInc(v.Int())
				}
			} else if col.NotNull {
				return nil, fmt.Errorf("exec: column %s.%s may not be NULL", meta.Name, col.Name)
			}
		}
		if err := tx.Insert(p.tbl, data); err != nil {
			return nil, err
		}
		res.RowsAffected++
	}
	return res, nil
}

// ---------------------------------------------------------------- UPDATE

type updatePlan struct {
	scan *selectPlan // single-level scan with FOR UPDATE semantics
	tbl  *storage.Table
	sets []struct {
		col int
		fn  EvalFn
	}
}

// buildSingleTableScan plans the WHERE of an UPDATE/DELETE as a one-level
// select.
func buildSingleTableScan(table, alias string, where parser.Expr, r Resolver) (*selectPlan, error) {
	sel := &parser.Select{
		Exprs: []parser.SelectExpr{{Star: true}},
		From:  []parser.TableRef{{Table: table, Alias: alias}},
		Where: where,
	}
	p, err := compileSelect(sel, r)
	if err != nil {
		return nil, err
	}
	p.forUpdate = true
	return p, nil
}

func compileUpdate(up *parser.Update, r Resolver) (*updatePlan, error) {
	scan, err := buildSingleTableScan(up.Table, up.Alias, up.Where, r)
	if err != nil {
		return nil, err
	}
	tbl := scan.levels[0].tbl
	p := &updatePlan{scan: scan, tbl: tbl}
	for _, a := range up.Sets {
		ci := tbl.Meta.ColumnIndex(a.Column)
		if ci < 0 {
			return nil, fmt.Errorf("exec: unknown column %q in UPDATE %s", a.Column, up.Table)
		}
		fn, err := compileExpr(a.Expr, scan.schema)
		if err != nil {
			return nil, err
		}
		p.sets = append(p.sets, struct {
			col int
			fn  EvalFn
		}{ci, fn})
	}
	return p, nil
}

func (p *updatePlan) Execute(tx *txn.Txn, params []sqlval.Value) (*Result, error) {
	se := p.scan.getExec(params)
	defer p.scan.putExec(se)
	env := &se.env
	if err := collectMatches(se, tx); err != nil {
		return nil, err
	}
	meta := p.tbl.Meta
	res := &Result{}
	for i, id := range se.ids {
		// SET expressions see the old image in env.Vals; the new one is
		// built beside it in se.img.
		env.Vals = se.vers[i].DecodeInto(env.Vals)
		se.img = append(se.img[:0], env.Vals...)
		newData := se.img
		for _, set := range p.sets {
			v, err := set.fn(env)
			if err != nil {
				return nil, err
			}
			col := &meta.Columns[set.col]
			if !v.IsNull() {
				cv, err := sqlval.CoerceKind(v, col.Kind)
				if err != nil {
					return nil, fmt.Errorf("exec: column %s.%s: %w", meta.Name, col.Name, err)
				}
				if col.Size > 0 && cv.Kind() == sqlval.KindString && len(cv.Str()) > col.Size {
					cv = sqlval.NewString(cv.Str()[:col.Size])
				}
				v = cv
			} else if col.NotNull {
				return nil, fmt.Errorf("exec: column %s.%s may not be NULL", meta.Name, col.Name)
			}
			newData[set.col] = v
		}
		if err := tx.Update(p.tbl, id, newData); err != nil {
			return nil, err
		}
		res.RowsAffected++
	}
	return res, nil
}

// collectMatches runs the scan of an UPDATE/DELETE plan and materializes the
// matching row ids and versions into se.ids and se.vers before any mutation, so
// the write phase never runs concurrently with its own index scan. se must
// come from the plan's scan.getExec.
func collectMatches(se *selectExec, tx *txn.Txn) error {
	env := &se.env
	lv := &se.p.levels[0]
	var innerErr error
	process := func(e storage.IndexEntry, vk verifyKind, _ *storage.Row) bool {
		v, err := tx.Read(lv.tbl, e.ID, true)
		if err != nil {
			innerErr = err
			return false
		}
		if v == nil {
			return true
		}
		data := v.DecodeInto(env.Vals[:0:lv.ncols])
		if !entryMatches(lv, e, vk, data) {
			return true
		}
		if lv.filter != nil {
			v, err := lv.filter(env)
			if err != nil {
				innerErr = err
				return false
			}
			if !truthy(v) {
				return true
			}
		}
		// The version's record is immutable and the row is locked FOR
		// UPDATE, so the version itself is the image to keep.
		se.ids = append(se.ids, e.ID)
		se.vers = append(se.vers, v)
		return true
	}
	if err := scanAccess(lv, env, &env.scratch[0], false, process); err != nil {
		return err
	}
	return innerErr
}

// ---------------------------------------------------------------- DELETE

type deletePlan struct {
	scan *selectPlan
	tbl  *storage.Table
}

func compileDelete(del *parser.Delete, r Resolver) (*deletePlan, error) {
	scan, err := buildSingleTableScan(del.Table, del.Alias, del.Where, r)
	if err != nil {
		return nil, err
	}
	return &deletePlan{scan: scan, tbl: scan.levels[0].tbl}, nil
}

func (p *deletePlan) Execute(tx *txn.Txn, params []sqlval.Value) (*Result, error) {
	se := p.scan.getExec(params)
	defer p.scan.putExec(se)
	if err := collectMatches(se, tx); err != nil {
		return nil, err
	}
	res := &Result{}
	for _, id := range se.ids {
		if err := tx.Delete(p.tbl, id); err != nil {
			return nil, err
		}
		res.RowsAffected++
	}
	return res, nil
}

// Explain summarizes a plan's access paths for diagnostics and tests.
func Explain(p Plan) string {
	var b strings.Builder
	describe := func(s *selectPlan) {
		for i, lv := range s.levels {
			if i > 0 {
				b.WriteString(" -> ")
			}
			fmt.Fprintf(&b, "%s(%s", lv.access.kind, lv.tbl.Meta.Name)
			if len(lv.access.eq) > 0 {
				fmt.Fprintf(&b, " eq=%d", len(lv.access.eq))
			}
			if lv.access.lo != nil || lv.access.hi != nil {
				b.WriteString(" range")
			}
			b.WriteString(")")
		}
	}
	switch x := p.(type) {
	case *selectPlan:
		describe(x)
	case *updatePlan:
		b.WriteString("update via ")
		describe(x.scan)
	case *deletePlan:
		b.WriteString("delete via ")
		describe(x.scan)
	case *insertPlan:
		fmt.Fprintf(&b, "insert(%s x%d)", x.tbl.Meta.Name, len(x.rows))
	}
	return b.String()
}
