// Package exec compiles parsed SQL statements into executable plans and runs
// them against the storage layer under a transaction.
//
// Compilation resolves column references to tuple positions once, so that a
// prepared statement's repeated executions only evaluate closures. Plans pick
// an access path per table: primary-key lookup or range, secondary-index
// prefix or range, or a sequential scan, based on the equality and range
// conjuncts available at that join depth.
package exec

import (
	"fmt"
	"strings"
	"time"

	"benchpress/internal/sqldb/catalog"
	"benchpress/internal/sqldb/parser"
	"benchpress/internal/sqldb/storage"
	"benchpress/internal/sqlval"
)

// Env is the runtime environment of one expression evaluation: the
// concatenated column values of all bound tables, the statement parameters,
// and (during aggregation output) the computed aggregate slots. Envs are
// pooled per plan and carry reusable scratch buffers so the per-row hot path
// of a prepared statement allocates nothing for keys or scan bounds.
type Env struct {
	Vals    []sqlval.Value
	Params  []sqlval.Value
	AggVals []sqlval.Value
	// scratch holds one reusable key/bound buffer set per scan level;
	// nested join levels probe concurrently, so the buffers cannot be
	// shared across levels within one tuple descent.
	scratch []levelScratch
	// keyBuf is the reusable group-key evaluation buffer.
	keyBuf []sqlval.Value
	// keyBytes is the reusable hash-key buffer of GROUP BY, DISTINCT and
	// COUNT(DISTINCT): values are hashed in their index-key encoding.
	keyBytes []byte
}

// levelScratch is one scan level's reusable probe buffers: the encoded
// bounds (or point key) of its index access.
type levelScratch struct {
	from []byte
	to   []byte
	// entries is the range-scan batch buffer: index entries are materialized
	// here under the index latch, then consumed latch-free. Reused across
	// probes and executions; releaseEntries drops key references afterwards.
	entries []storage.IndexEntry
	// batch is the sequential-scan row batch, allocated on first use.
	batch *storage.RowBatch
}

// maxRetainedEntries bounds the entry scratch a pooled execution keeps; a
// scan that materialized more than this hands the buffer back to the GC.
const maxRetainedEntries = 1024

// releaseEntries clears the consumed entry batch so pooled executor state
// does not pin index key slices between executions.
func (sc *levelScratch) releaseEntries() {
	for i := range sc.entries {
		sc.entries[i] = storage.IndexEntry{}
	}
	if cap(sc.entries) > maxRetainedEntries {
		sc.entries = nil
	} else {
		sc.entries = sc.entries[:0]
	}
}

// reset prepares a (possibly pooled) Env for one execution: Vals is sized
// and zeroed to the schema width (matching a freshly allocated slice) and
// the per-level scratch is sized to the plan's scan depth.
func (env *Env) reset(width, levels int, params []sqlval.Value) {
	if cap(env.Vals) < width {
		env.Vals = make([]sqlval.Value, width)
	} else {
		env.Vals = env.Vals[:width]
		for i := range env.Vals {
			env.Vals[i] = sqlval.Value{}
		}
	}
	if cap(env.scratch) < levels {
		env.scratch = make([]levelScratch, levels)
	} else {
		env.scratch = env.scratch[:levels]
	}
	env.Params = params
	env.AggVals = nil
}

// EvalFn evaluates one compiled expression.
type EvalFn func(env *Env) (sqlval.Value, error)

// boundTable is one table bound into a tuple schema at a column offset.
type boundTable struct {
	alias  string // lower-cased alias (or table name)
	meta   *catalog.Table
	offset int
}

// tupleSchema maps qualified column names to tuple positions.
type tupleSchema struct {
	tables []boundTable
	width  int
}

func (s *tupleSchema) bind(alias string, meta *catalog.Table) {
	s.tables = append(s.tables, boundTable{alias: strings.ToLower(alias), meta: meta, offset: s.width})
	s.width += len(meta.Columns)
}

// prefix returns a schema covering only the first n bound tables, used to
// decide whether a conjunct is evaluable at a given join depth.
func (s *tupleSchema) prefix(n int) *tupleSchema {
	p := &tupleSchema{tables: s.tables[:n]}
	if n > 0 {
		last := s.tables[n-1]
		p.width = last.offset + len(last.meta.Columns)
	}
	return p
}

// resolve finds the tuple position of a (possibly qualified) column.
func (s *tupleSchema) resolve(qual, name string) (int, error) {
	qual = strings.ToLower(qual)
	pos, found := -1, 0
	for _, bt := range s.tables {
		if qual != "" && bt.alias != qual {
			continue
		}
		if i := bt.meta.ColumnIndex(name); i >= 0 {
			pos = bt.offset + i
			found++
		}
	}
	switch {
	case found == 0:
		if qual != "" {
			return 0, fmt.Errorf("exec: unknown column %s.%s", qual, name)
		}
		return 0, fmt.Errorf("exec: unknown column %s", name)
	case found > 1:
		return 0, fmt.Errorf("exec: ambiguous column %s", name)
	default:
		return pos, nil
	}
}

// aggCall is one aggregate invocation discovered during compilation.
type aggCall struct {
	fn       string // COUNT, SUM, AVG, MIN, MAX
	star     bool
	distinct bool
	arg      EvalFn // nil for COUNT(*)
}

// compiler tracks aggregate slots while compiling expressions.
type compiler struct {
	schema *tupleSchema
	// aggs collects aggregate calls; nil means aggregates are not allowed
	// in this context (e.g. WHERE clauses).
	aggs *[]aggCall
}

// compileExpr compiles e against schema with aggregates disallowed.
func compileExpr(e parser.Expr, schema *tupleSchema) (EvalFn, error) {
	c := &compiler{schema: schema}
	return c.compile(e)
}

// compileAggExpr compiles e allowing aggregate calls, appending their
// definitions to aggs and wiring their results through Env.AggVals.
func compileAggExpr(e parser.Expr, schema *tupleSchema, aggs *[]aggCall) (EvalFn, error) {
	c := &compiler{schema: schema, aggs: aggs}
	return c.compile(e)
}

func (c *compiler) compile(e parser.Expr) (EvalFn, error) {
	switch x := e.(type) {
	case *parser.Literal:
		v := x.Val
		return func(*Env) (sqlval.Value, error) { return v, nil }, nil
	case *parser.Param:
		idx := x.Index
		return func(env *Env) (sqlval.Value, error) {
			if idx >= len(env.Params) {
				return sqlval.Value{}, fmt.Errorf("exec: missing parameter %d", idx+1)
			}
			return env.Params[idx], nil
		}, nil
	case *parser.ColumnRef:
		pos, err := c.schema.resolve(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		return func(env *Env) (sqlval.Value, error) { return env.Vals[pos], nil }, nil
	case *parser.Binary:
		return c.compileBinary(x)
	case *parser.Unary:
		inner, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "NOT":
			return func(env *Env) (sqlval.Value, error) {
				v, err := inner(env)
				if err != nil {
					return sqlval.Value{}, err
				}
				if v.IsNull() {
					return sqlval.Null(), nil
				}
				return sqlval.NewBool(!v.Bool()), nil
			}, nil
		case "-":
			return func(env *Env) (sqlval.Value, error) {
				v, err := inner(env)
				if err != nil {
					return sqlval.Value{}, err
				}
				return sqlval.Sub(sqlval.NewInt(0), v)
			}, nil
		default:
			return nil, fmt.Errorf("exec: unknown unary operator %q", x.Op)
		}
	case *parser.FuncCall:
		return c.compileFunc(x)
	case *parser.InList:
		return c.compileIn(x)
	case *parser.Between:
		return c.compileBetween(x)
	case *parser.IsNull:
		inner, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(env *Env) (sqlval.Value, error) {
			v, err := inner(env)
			if err != nil {
				return sqlval.Value{}, err
			}
			return sqlval.NewBool(v.IsNull() != not), nil
		}, nil
	case *parser.Like:
		return c.compileLike(x)
	case *parser.Case:
		return c.compileCase(x)
	default:
		return nil, fmt.Errorf("exec: unsupported expression %T", e)
	}
}

func (c *compiler) compileBinary(x *parser.Binary) (EvalFn, error) {
	l, err := c.compile(x.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compile(x.R)
	if err != nil {
		return nil, err
	}
	op := x.Op
	switch op {
	case "AND":
		return func(env *Env) (sqlval.Value, error) {
			lv, err := l(env)
			if err != nil {
				return sqlval.Value{}, err
			}
			if !lv.IsNull() && !lv.Bool() {
				return sqlval.NewBool(false), nil
			}
			rv, err := r(env)
			if err != nil {
				return sqlval.Value{}, err
			}
			if !rv.IsNull() && !rv.Bool() {
				return sqlval.NewBool(false), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return sqlval.Null(), nil
			}
			return sqlval.NewBool(true), nil
		}, nil
	case "OR":
		return func(env *Env) (sqlval.Value, error) {
			lv, err := l(env)
			if err != nil {
				return sqlval.Value{}, err
			}
			if !lv.IsNull() && lv.Bool() {
				return sqlval.NewBool(true), nil
			}
			rv, err := r(env)
			if err != nil {
				return sqlval.Value{}, err
			}
			if !rv.IsNull() && rv.Bool() {
				return sqlval.NewBool(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return sqlval.Null(), nil
			}
			return sqlval.NewBool(false), nil
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		return func(env *Env) (sqlval.Value, error) {
			lv, err := l(env)
			if err != nil {
				return sqlval.Value{}, err
			}
			rv, err := r(env)
			if err != nil {
				return sqlval.Value{}, err
			}
			if lv.IsNull() || rv.IsNull() {
				return sqlval.Null(), nil
			}
			cmp := sqlval.Compare(lv, rv)
			var out bool
			switch op {
			case "=":
				out = cmp == 0
			case "<>":
				out = cmp != 0
			case "<":
				out = cmp < 0
			case "<=":
				out = cmp <= 0
			case ">":
				out = cmp > 0
			case ">=":
				out = cmp >= 0
			}
			return sqlval.NewBool(out), nil
		}, nil
	case "+", "-", "*", "/":
		return func(env *Env) (sqlval.Value, error) {
			lv, err := l(env)
			if err != nil {
				return sqlval.Value{}, err
			}
			rv, err := r(env)
			if err != nil {
				return sqlval.Value{}, err
			}
			switch op {
			case "+":
				return sqlval.Add(lv, rv)
			case "-":
				return sqlval.Sub(lv, rv)
			case "*":
				return sqlval.Mul(lv, rv)
			default:
				return sqlval.Div(lv, rv)
			}
		}, nil
	case "%":
		return func(env *Env) (sqlval.Value, error) {
			lv, err := l(env)
			if err != nil {
				return sqlval.Value{}, err
			}
			rv, err := r(env)
			if err != nil {
				return sqlval.Value{}, err
			}
			if lv.IsNull() || rv.IsNull() {
				return sqlval.Null(), nil
			}
			if rv.Int() == 0 {
				return sqlval.Value{}, fmt.Errorf("exec: modulo by zero")
			}
			return sqlval.NewInt(lv.Int() % rv.Int()), nil
		}, nil
	case "||":
		return func(env *Env) (sqlval.Value, error) {
			lv, err := l(env)
			if err != nil {
				return sqlval.Value{}, err
			}
			rv, err := r(env)
			if err != nil {
				return sqlval.Value{}, err
			}
			if lv.IsNull() || rv.IsNull() {
				return sqlval.Null(), nil
			}
			return sqlval.NewString(lv.Str() + rv.Str()), nil
		}, nil
	default:
		return nil, fmt.Errorf("exec: unknown binary operator %q", op)
	}
}

// aggregateFuncs is the set of aggregate function names.
var aggregateFuncs = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (c *compiler) compileFunc(x *parser.FuncCall) (EvalFn, error) {
	if aggregateFuncs[x.Name] {
		if c.aggs == nil {
			return nil, fmt.Errorf("exec: aggregate %s not allowed here", x.Name)
		}
		call := aggCall{fn: x.Name, star: x.Star, distinct: x.Distinct}
		if !x.Star {
			if len(x.Args) != 1 {
				return nil, fmt.Errorf("exec: %s takes one argument", x.Name)
			}
			arg, err := compileExpr(x.Args[0], c.schema)
			if err != nil {
				return nil, err
			}
			call.arg = arg
		}
		slot := len(*c.aggs)
		*c.aggs = append(*c.aggs, call)
		return func(env *Env) (sqlval.Value, error) {
			if slot >= len(env.AggVals) {
				return sqlval.Value{}, fmt.Errorf("exec: aggregate slot %d unbound", slot)
			}
			return env.AggVals[slot], nil
		}, nil
	}
	args := make([]EvalFn, len(x.Args))
	for i, a := range x.Args {
		fn, err := c.compile(a)
		if err != nil {
			return nil, err
		}
		args[i] = fn
	}
	return compileScalarFunc(x.Name, args)
}

func compileScalarFunc(name string, args []EvalFn) (EvalFn, error) {
	evalAll := func(env *Env) ([]sqlval.Value, error) {
		vals := make([]sqlval.Value, len(args))
		for i, fn := range args {
			v, err := fn(env)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return vals, nil
	}
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("exec: %s takes %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "LOWER":
		if err := arity(1); err != nil {
			return nil, err
		}
		return func(env *Env) (sqlval.Value, error) {
			vs, err := evalAll(env)
			if err != nil || vs[0].IsNull() {
				return sqlval.Null(), err
			}
			return sqlval.NewString(strings.ToLower(vs[0].Str())), nil
		}, nil
	case "UPPER":
		if err := arity(1); err != nil {
			return nil, err
		}
		return func(env *Env) (sqlval.Value, error) {
			vs, err := evalAll(env)
			if err != nil || vs[0].IsNull() {
				return sqlval.Null(), err
			}
			return sqlval.NewString(strings.ToUpper(vs[0].Str())), nil
		}, nil
	case "LENGTH", "CHAR_LENGTH":
		if err := arity(1); err != nil {
			return nil, err
		}
		return func(env *Env) (sqlval.Value, error) {
			vs, err := evalAll(env)
			if err != nil || vs[0].IsNull() {
				return sqlval.Null(), err
			}
			return sqlval.NewInt(int64(len(vs[0].Str()))), nil
		}, nil
	case "ABS":
		if err := arity(1); err != nil {
			return nil, err
		}
		return func(env *Env) (sqlval.Value, error) {
			vs, err := evalAll(env)
			if err != nil || vs[0].IsNull() {
				return sqlval.Null(), err
			}
			if vs[0].Kind() == sqlval.KindFloat {
				f := vs[0].Float()
				if f < 0 {
					f = -f
				}
				return sqlval.NewFloat(f), nil
			}
			n := vs[0].Int()
			if n < 0 {
				n = -n
			}
			return sqlval.NewInt(n), nil
		}, nil
	case "MOD":
		if err := arity(2); err != nil {
			return nil, err
		}
		return func(env *Env) (sqlval.Value, error) {
			vs, err := evalAll(env)
			if err != nil || vs[0].IsNull() || vs[1].IsNull() {
				return sqlval.Null(), err
			}
			if vs[1].Int() == 0 {
				return sqlval.Value{}, fmt.Errorf("exec: MOD by zero")
			}
			return sqlval.NewInt(vs[0].Int() % vs[1].Int()), nil
		}, nil
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("exec: %s takes 2 or 3 arguments", name)
		}
		return func(env *Env) (sqlval.Value, error) {
			vs, err := evalAll(env)
			if err != nil || vs[0].IsNull() {
				return sqlval.Null(), err
			}
			s := vs[0].Str()
			start := int(vs[1].Int()) - 1 // SQL is 1-based
			if start < 0 {
				start = 0
			}
			if start > len(s) {
				start = len(s)
			}
			end := len(s)
			if len(vs) == 3 {
				if n := int(vs[2].Int()); start+n < end {
					end = start + n
				}
			}
			return sqlval.NewString(s[start:end]), nil
		}, nil
	case "COALESCE", "IFNULL":
		if len(args) == 0 {
			return nil, fmt.Errorf("exec: %s needs arguments", name)
		}
		return func(env *Env) (sqlval.Value, error) {
			for _, fn := range args {
				v, err := fn(env)
				if err != nil {
					return sqlval.Value{}, err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return sqlval.Null(), nil
		}, nil
	case "NOW", "CURRENT_TIMESTAMP":
		if err := arity(0); err != nil {
			return nil, err
		}
		return func(*Env) (sqlval.Value, error) { return sqlval.NewTime(time.Now()), nil }, nil
	case "FLOOR":
		if err := arity(1); err != nil {
			return nil, err
		}
		return func(env *Env) (sqlval.Value, error) {
			vs, err := evalAll(env)
			if err != nil || vs[0].IsNull() {
				return sqlval.Null(), err
			}
			f := vs[0].Float()
			n := int64(f)
			if f < 0 && float64(n) != f {
				n--
			}
			return sqlval.NewInt(n), nil
		}, nil
	default:
		return nil, fmt.Errorf("exec: unknown function %s", name)
	}
}

func (c *compiler) compileIn(x *parser.InList) (EvalFn, error) {
	inner, err := c.compile(x.X)
	if err != nil {
		return nil, err
	}
	list := make([]EvalFn, len(x.List))
	for i, e := range x.List {
		fn, err := c.compile(e)
		if err != nil {
			return nil, err
		}
		list[i] = fn
	}
	not := x.Not
	return func(env *Env) (sqlval.Value, error) {
		v, err := inner(env)
		if err != nil {
			return sqlval.Value{}, err
		}
		if v.IsNull() {
			return sqlval.Null(), nil
		}
		sawNull := false
		for _, fn := range list {
			lv, err := fn(env)
			if err != nil {
				return sqlval.Value{}, err
			}
			if lv.IsNull() {
				sawNull = true
				continue
			}
			if sqlval.Compare(v, lv) == 0 {
				return sqlval.NewBool(!not), nil
			}
		}
		if sawNull {
			return sqlval.Null(), nil
		}
		return sqlval.NewBool(not), nil
	}, nil
}

func (c *compiler) compileBetween(x *parser.Between) (EvalFn, error) {
	inner, err := c.compile(x.X)
	if err != nil {
		return nil, err
	}
	lo, err := c.compile(x.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := c.compile(x.Hi)
	if err != nil {
		return nil, err
	}
	not := x.Not
	return func(env *Env) (sqlval.Value, error) {
		v, err := inner(env)
		if err != nil {
			return sqlval.Value{}, err
		}
		lv, err := lo(env)
		if err != nil {
			return sqlval.Value{}, err
		}
		hv, err := hi(env)
		if err != nil {
			return sqlval.Value{}, err
		}
		if v.IsNull() || lv.IsNull() || hv.IsNull() {
			return sqlval.Null(), nil
		}
		in := sqlval.Compare(v, lv) >= 0 && sqlval.Compare(v, hv) <= 0
		return sqlval.NewBool(in != not), nil
	}, nil
}

func (c *compiler) compileLike(x *parser.Like) (EvalFn, error) {
	inner, err := c.compile(x.X)
	if err != nil {
		return nil, err
	}
	pat, err := c.compile(x.Pattern)
	if err != nil {
		return nil, err
	}
	not := x.Not
	return func(env *Env) (sqlval.Value, error) {
		v, err := inner(env)
		if err != nil {
			return sqlval.Value{}, err
		}
		pv, err := pat(env)
		if err != nil {
			return sqlval.Value{}, err
		}
		if v.IsNull() || pv.IsNull() {
			return sqlval.Null(), nil
		}
		return sqlval.NewBool(likeMatch(v.Str(), pv.Str()) != not), nil
	}, nil
}

// likeMatch implements SQL LIKE with % and _ wildcards (case-sensitive),
// using iterative backtracking over the last % seen.
func likeMatch(s, pattern string) bool {
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			match = si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

func (c *compiler) compileCase(x *parser.Case) (EvalFn, error) {
	type arm struct{ cond, then EvalFn }
	arms := make([]arm, len(x.Whens))
	for i, w := range x.Whens {
		cond, err := c.compile(w.Cond)
		if err != nil {
			return nil, err
		}
		then, err := c.compile(w.Then)
		if err != nil {
			return nil, err
		}
		arms[i] = arm{cond, then}
	}
	var elseFn EvalFn
	if x.Else != nil {
		fn, err := c.compile(x.Else)
		if err != nil {
			return nil, err
		}
		elseFn = fn
	}
	return func(env *Env) (sqlval.Value, error) {
		for _, a := range arms {
			cv, err := a.cond(env)
			if err != nil {
				return sqlval.Value{}, err
			}
			if !cv.IsNull() && cv.Bool() {
				return a.then(env)
			}
		}
		if elseFn != nil {
			return elseFn(env)
		}
		return sqlval.Null(), nil
	}, nil
}

// truthy interprets a predicate result: NULL and false both reject the row.
func truthy(v sqlval.Value) bool { return !v.IsNull() && v.Bool() }

// exprText renders an expression to a canonical string, used to match ORDER
// BY expressions against select-list items in aggregate queries.
func exprText(e parser.Expr) string {
	switch x := e.(type) {
	case *parser.Literal:
		return x.Val.Format()
	case *parser.Param:
		return fmt.Sprintf("?%d", x.Index)
	case *parser.ColumnRef:
		if x.Table != "" {
			return strings.ToLower(x.Table) + "." + strings.ToLower(x.Name)
		}
		return strings.ToLower(x.Name)
	case *parser.Binary:
		return "(" + exprText(x.L) + x.Op + exprText(x.R) + ")"
	case *parser.Unary:
		return x.Op + "(" + exprText(x.X) + ")"
	case *parser.FuncCall:
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = exprText(a)
		}
		star := ""
		if x.Star {
			star = "*"
		}
		return x.Name + "(" + star + strings.Join(parts, ",") + ")"
	case *parser.InList:
		return exprText(x.X) + " IN (...)"
	case *parser.Between:
		return exprText(x.X) + " BETWEEN " + exprText(x.Lo) + " AND " + exprText(x.Hi)
	case *parser.IsNull:
		return exprText(x.X) + " IS NULL"
	case *parser.Like:
		return exprText(x.X) + " LIKE " + exprText(x.Pattern)
	case *parser.Case:
		return fmt.Sprintf("CASE(%p)", x)
	default:
		return fmt.Sprintf("%T", e)
	}
}
