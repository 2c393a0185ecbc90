package rules

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"benchpress/internal/analysis"
	"benchpress/internal/analysis/callgraph"
)

// One obligation analysis serves three rules. A begin call hands out a
// resource — a transaction, a pinned buffer-pool frame, a prepared
// statement — and the function that opened it must settle it somewhere the
// analysis can see: locally, through a callee whose exported fact says it
// settles the same root, or by visibly handing it off (returning it, storing
// it into a struct, sending it away).
//
// Hand-offs are not free passes: a function that returns an open resource
// exports an "opens" fact, so the obligation reappears at every call site and
// follows the resource across package boundaries. Two bitset facts per
// resource carry the summaries: <prefix>.settles uses the unified parameter
// bit layout of inter.go ("calling this function settles the resource rooted
// at parameter i"), <prefix>.opens uses result indices ("result i carries an
// open resource the caller must settle").

// resource is the spec of one obligation kind; the engine is the same for
// all of them.
type resource struct {
	facts  string          // fact name prefix
	begin  map[string]bool // methods that open the resource
	settle map[string]bool // methods that settle it
	// owner reports whether a begin on a receiver of type recv roots the
	// obligation at the receiver itself (conn.Begin() opens conn's
	// transaction). Nil means never.
	owner func(recv types.Type) bool
	// carries reports whether result i, of type t, of a begin call carries
	// the resource. recv is the receiver type, nil for a plain call.
	carries func(recv types.Type, i int, t types.Type) bool
	// settleArgs: the settle call releases its arguments (pool.Unpin(f)),
	// not its receiver (tx.Commit()).
	settleArgs bool
	// scope, when set, limits findings to packages whose module-relative
	// path it accepts.
	scope func(rel string) bool
	// message renders a finding for the begin call what in function fn;
	// discarded means the resource was dropped on the spot.
	message func(what, fn string, discarded bool) string
}

// txnResource: Begin/BeginReadOnly/TryBegin on a transactional receiver (a
// type with Commit plus Rollback or Abort) or returning a transactional
// value opens a transaction; Abort is the storage layer's rollback spelling.
var txnResource = &resource{
	facts:   "txn",
	begin:   map[string]bool{"Begin": true, "BeginReadOnly": true, "TryBegin": true},
	settle:  map[string]bool{"Commit": true, "Rollback": true, "Abort": true},
	owner:   isTransactionalType,
	carries: func(_ types.Type, _ int, t types.Type) bool { return isTransactionalType(t) },
	message: func(what, fn string, discarded bool) string {
		if discarded {
			return fmt.Sprintf("transaction opened by %s is immediately discarded", what)
		}
		return fmt.Sprintf("transaction opened by %s is never committed or rolled back in %s and does not escape to a caller", what, fn)
	},
}

// pinResource: every non-error result of Pin/PinNew on a pool-like receiver
// (a type with Unpin and Pin or PinNew) is a pinned frame. Unlike a
// transaction, the frame is settled by passing it to Unpin.
var pinResource = &resource{
	facts:  "pin",
	begin:  map[string]bool{"Pin": true, "PinNew": true},
	settle: map[string]bool{"Unpin": true},
	carries: func(recv types.Type, _ int, t types.Type) bool {
		return isPoolType(recv) && !types.Identical(t, errorType)
	},
	settleArgs: true,
	message: func(what, fn string, discarded bool) string {
		if discarded {
			return fmt.Sprintf("frame pinned by %s is immediately discarded", what)
		}
		return fmt.Sprintf("frame pinned by %s is never unpinned in %s and does not escape to a caller", what, fn)
	},
}

// stmtResource: result 0 of Prepare is a statement when its type has a
// Close method. That keeps the rule off unrelated Prepare helpers (e.g.
// core.Prepare, which returns only error) and off session-level statements
// that need no release.
var stmtResource = &resource{
	facts:   "stmt",
	begin:   map[string]bool{"Prepare": true},
	settle:  map[string]bool{"Close": true},
	carries: func(_ types.Type, i int, t types.Type) bool { return i == 0 && hasMethod(t, nil, "Close") },
	scope:   inInternalOrCmd,
	message: func(_, fn string, _ bool) string {
		return fmt.Sprintf("prepared statement is never closed in %s (close it, return it, or store it in a field)", fn)
	},
}

// isTransactionalType reports whether t looks like a transaction or a
// connection owning one: it has Commit plus Rollback or Abort.
func isTransactionalType(t types.Type) bool {
	return hasMethod(t, nil, "Commit") &&
		(hasMethod(t, nil, "Rollback") || hasMethod(t, nil, "Abort"))
}

// isPoolType reports whether t looks like a buffer pool: it can Unpin and it
// can Pin or PinNew.
func isPoolType(t types.Type) bool {
	return hasMethod(t, nil, "Unpin") &&
		(hasMethod(t, nil, "Pin") || hasMethod(t, nil, "PinNew"))
}

// TxnHygiene enforces that every opened transaction is settled by a
// Commit/Rollback/Abort somewhere the analysis can see. This is the
// interprocedural upgrade of the v1 rule, which could only see one function
// at a time and forced //lint:ignore directives onto every helper-settled
// transaction.
type TxnHygiene struct{}

// Name implements analysis.Rule.
func (TxnHygiene) Name() string { return "txn-hygiene" }

// Doc implements analysis.Rule.
func (TxnHygiene) Doc() string {
	return "every opened transaction must reach a Commit/Rollback/Abort in this function, a settling callee, or the caller it escapes to"
}

// CheckProgram implements analysis.ProgramRule.
func (TxnHygiene) CheckProgram(pass *analysis.ProgramPass) { txnResource.check(pass) }

// PinLeak enforces that every buffer-pool frame pinned by Pin/PinNew reaches
// an Unpin somewhere the analysis can see. A leaked pin is worse than a
// leaked transaction: a pinned frame can never be evicted, so one leak per
// request eventually wedges the pool and every Pin blocks with "all frames
// pinned".
type PinLeak struct{}

// Name implements analysis.Rule.
func (PinLeak) Name() string { return "pin-leak" }

// Doc implements analysis.Rule.
func (PinLeak) Doc() string {
	return "every frame pinned by Pin/PinNew must reach an Unpin in this function, an unpinning callee, or the caller it escapes to"
}

// CheckProgram implements analysis.ProgramRule.
func (PinLeak) CheckProgram(pass *analysis.ProgramPass) { pinResource.check(pass) }

// PreparedStmtLeak enforces that every prepared statement reaches a Close
// somewhere the analysis can see. A prepared statement pins a session
// reference, and a worker loop that re-prepares per transaction without
// closing accumulates dead statements for the whole run. The rule is scoped
// to internal/ and cmd/.
type PreparedStmtLeak struct{}

// Name implements analysis.Rule.
func (PreparedStmtLeak) Name() string { return "prepared-stmt-leak" }

// Doc implements analysis.Rule.
func (PreparedStmtLeak) Doc() string {
	return "every Prepare() result must reach a Close, a return, or a field store"
}

// CheckProgram implements analysis.ProgramRule.
func (PreparedStmtLeak) CheckProgram(pass *analysis.ProgramPass) { stmtResource.check(pass) }

// check runs the obligation analysis for one resource. Summaries are
// iterated to a fixpoint first (facts grow monotonically), then every
// function in scope is checked against the final facts.
func (r *resource) check(pass *analysis.ProgramPass) {
	prog := pass.Prog
	settles, opens := r.facts+".settles", r.facts+".opens"
	scan := func(n *callgraph.Node) *obligationScan {
		return scanObligations(prog, r, settles, opens, n)
	}
	solve(prog, func(n *callgraph.Node) bool {
		s := scan(n)
		grew := prog.Facts.ExportBits(n.Func, settles, s.settleBits())
		return prog.Facts.ExportBits(n.Func, opens, s.opens) || grew
	})
	for _, n := range prog.Graph.Nodes() {
		if r.scope == nil || r.scope(prog.RelPath(n.Path)) {
			scan(n).report(pass)
		}
	}
}

// obligation is one resource opened in a function: where, the call that
// opened it, and the variable it is rooted at (nil when the open resource is
// discarded on the spot).
type obligation struct {
	pos  token.Pos
	root types.Object
	what string
}

// handOff records that a return statement hands result index idx the value
// rooted at obj.
type handOff struct {
	idx int
	obj types.Object
}

// obligationScan is the per-function summary of one fixpoint iteration.
type obligationScan struct {
	prog                   *analysis.Program
	res                    *resource
	settlesFact, opensFact string
	node                   *callgraph.Node
	info                   *types.Info

	params      []types.Object
	settleRoots map[types.Object]bool
	coarse      bool // a settle method is called somewhere (v1 fallback)
	escaped     map[types.Object]bool
	opens       uint64
	obligations []obligation
}

// scanObligations walks one declaration (function literals included — a
// settle inside a deferred closure still settles) and computes its summary
// under the current facts.
func scanObligations(prog *analysis.Program, r *resource, settles, opens string, n *callgraph.Node) *obligationScan {
	s := &obligationScan{
		prog:        prog,
		res:         r,
		settlesFact: settles,
		opensFact:   opens,
		node:        n,
		info:        n.Info,
		params:      paramObjs(n.Info, n.Decl),
		settleRoots: map[types.Object]bool{},
		escaped:     map[types.Object]bool{},
	}
	var returns []handOff
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr:
			s.visitCall(x)
		case *ast.AssignStmt:
			s.visitAssign(x)
		case *ast.ValueSpec:
			s.visitValueSpec(x)
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
				for range s.openedResults(call) {
					s.obligations = append(s.obligations,
						obligation{pos: call.Pos(), what: calleeName(call)})
				}
			}
		case *ast.ReturnStmt:
			returns = append(returns, s.visitReturn(x)...)
		case *ast.CompositeLit:
			// Anything folded into a composite literal escapes linear sight.
			for _, elt := range x.Elts {
				ast.Inspect(elt, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if o := s.info.Uses[id]; o != nil {
							s.escaped[o] = true
						}
					}
					return true
				})
			}
		case *ast.SendStmt:
			if o := identObj(s.info, x.Value); o != nil {
				s.escaped[o] = true
			}
		}
		return true
	})
	// A return of an obligation root re-exports the obligation to callers.
	roots := map[types.Object]bool{}
	for _, ob := range s.obligations {
		if ob.root != nil {
			roots[ob.root] = true
		}
	}
	for _, r := range returns {
		if roots[r.obj] && r.idx < 64 {
			s.opens |= 1 << r.idx
		}
	}
	return s
}

// settleRoot marks the root of e as settled.
func (s *obligationScan) settleRoot(e ast.Expr) {
	if o := rootObj(s.info, e); o != nil {
		s.settleRoots[o] = true
	}
}

// visitCall records settles (direct and via callee facts), receiver-owned
// begin obligations, and the hand-off of roots into dynamic calls.
func (s *obligationScan) visitCall(call *ast.CallExpr) {
	name := calleeName(call)
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if s.res.settle[name] {
		s.coarse = true
		if s.res.settleArgs {
			for _, a := range call.Args {
				s.settleRoot(a)
			}
		} else if isSel {
			s.settleRoot(sel.X)
		}
	}
	if s.res.begin[name] && isSel && s.owns(s.info.TypeOf(sel.X)) {
		s.obligations = append(s.obligations,
			obligation{pos: call.Pos(), root: rootObj(s.info, sel.X), what: name})
	}
	resolved := s.prog.Graph.Resolve(call)
	for _, callee := range resolved {
		eachBit(s.prog.Facts.Bits(callee, s.settlesFact), func(bit int) {
			if arg := argForBit(call, callee, bit); arg != nil {
				s.settleRoot(arg)
			}
		})
	}
	if len(resolved) == 0 {
		// Dynamic call (function value, conversion, builtin): a resource
		// passed into it is out of linear sight — hand-off, not a leak.
		for _, a := range call.Args {
			if o := identObj(s.info, a); o != nil {
				s.escaped[o] = true
			}
		}
	}
}

// owns reports whether a begin on a receiver of type recv roots the
// obligation at the receiver.
func (s *obligationScan) owns(recv types.Type) bool {
	return s.res.owner != nil && s.res.owner(recv)
}

// openedResults returns the result indices of call that carry an open
// resource: the carrying results of a begin call (unless the receiver itself
// owns the resource), plus every callee "opens" fact.
func (s *obligationScan) openedResults(call *ast.CallExpr) []int {
	seen := map[int]bool{}
	var idx []int
	add := func(i int) {
		if !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	if s.res.begin[calleeName(call)] {
		var recv types.Type // nil for a plain or package-qualified call
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			recv = s.info.TypeOf(sel.X)
		}
		if sig, ok := s.info.TypeOf(call.Fun).(*types.Signature); ok && !s.owns(recv) {
			res := sig.Results()
			for i := 0; i < res.Len(); i++ {
				if s.res.carries(recv, i, res.At(i).Type()) {
					add(i)
				}
			}
		}
	}
	for _, callee := range s.prog.Graph.Resolve(call) {
		eachBit(s.prog.Facts.Bits(callee, s.opensFact), add)
	}
	sort.Ints(idx)
	return idx
}

// visitAssign handles both sides of an assignment: storing a tracked root
// into differently-rooted memory is an escape; a call on the right-hand side
// that opens a resource creates an obligation on the left-hand side.
func (s *obligationScan) visitAssign(a *ast.AssignStmt) {
	if len(a.Lhs) == len(a.Rhs) {
		for j, rhs := range a.Rhs {
			o := identObj(s.info, rhs)
			if o == nil {
				continue
			}
			// Assigning to blank drops the value — that is not a hand-off,
			// the obligation stays live.
			if id, ok := ast.Unparen(a.Lhs[j]).(*ast.Ident); ok && id.Name == "_" {
				continue
			}
			if rootObj(s.info, a.Lhs[j]) != o {
				s.escaped[o] = true
			}
		}
	}
	if len(a.Rhs) == 1 {
		if call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr); ok {
			for _, i := range s.openedResults(call) {
				s.addLhsObligation(call, a.Lhs, i)
			}
		}
		return
	}
	for j, rhs := range a.Rhs {
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			for _, i := range s.openedResults(call) {
				if i == 0 {
					s.addLhsObligation(call, a.Lhs[j:j+1], 0)
				}
			}
		}
	}
}

// visitValueSpec handles `var t = mgr.Begin(...)` declarations.
func (s *obligationScan) visitValueSpec(spec *ast.ValueSpec) {
	if len(spec.Values) != 1 {
		return
	}
	call, ok := ast.Unparen(spec.Values[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	for _, i := range s.openedResults(call) {
		ob := obligation{pos: call.Pos(), what: calleeName(call)}
		if i < len(spec.Names) && spec.Names[i].Name != "_" {
			ob.root = s.info.Defs[spec.Names[i]]
		}
		s.obligations = append(s.obligations, ob)
	}
}

// addLhsObligation attaches the obligation for result index i of call to the
// assignment target. A blank target is an immediate discard; a field or
// element target moves the resource into memory (escape), which silences the
// local obligation rather than creating an untrackable one.
func (s *obligationScan) addLhsObligation(call *ast.CallExpr, lhs []ast.Expr, i int) {
	ob := obligation{pos: call.Pos(), what: calleeName(call)}
	if i < len(lhs) {
		target := ast.Unparen(lhs[i])
		if id, ok := target.(*ast.Ident); ok {
			if id.Name != "_" {
				ob.root = rootObj(s.info, id)
			}
			s.obligations = append(s.obligations, ob)
			return
		}
		// Stored straight into a struct field, map, or slice: out of scope
		// for linear tracking.
		return
	}
	s.obligations = append(s.obligations, ob)
}

// visitReturn records hand-offs through return statements: returned roots
// (plain or folded into a composite literal) and forwarded callee opens.
func (s *obligationScan) visitReturn(r *ast.ReturnStmt) []handOff {
	if len(r.Results) == 1 {
		if call, ok := ast.Unparen(r.Results[0]).(*ast.CallExpr); ok {
			// Forwarding a call's results re-exports its opens bits verbatim.
			for _, i := range s.openedResults(call) {
				if i < 64 {
					s.opens |= 1 << i
				}
			}
			return nil
		}
	}
	var out []handOff
	for j, e := range r.Results {
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
			for _, i := range s.openedResults(call) {
				if i == 0 && j < 64 {
					s.opens |= 1 << j
				}
			}
			continue
		}
		if o := identObj(s.info, e); o != nil {
			s.escaped[o] = true
			out = append(out, handOff{idx: j, obj: o})
			continue
		}
		// A composite literal in a return carries every root folded into it.
		ast.Inspect(e, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if o := s.info.Uses[id]; o != nil {
					out = append(out, handOff{idx: j, obj: o})
				}
			}
			return true
		})
	}
	return out
}

// settleBits projects settled roots onto the function's own parameters for
// export.
func (s *obligationScan) settleBits() uint64 {
	var bits uint64
	for i, o := range s.params {
		if o != nil && i < 64 && s.settleRoots[o] {
			bits |= 1 << i
		}
	}
	return bits
}

// report flags every obligation that is neither settled nor handed off.
// Functions that ARE the begin operation (Conn.Begin forwarding to
// Session.Begin, a wrapper Pin forwarding to the pool's Pin) are exempt:
// their caller owns the resource.
func (s *obligationScan) report(pass *analysis.ProgramPass) {
	fn := s.node.Decl.Name.Name
	if s.res.begin[fn] {
		return
	}
	for _, ob := range s.obligations {
		discarded := ob.root == nil
		if !discarded && (s.coarse || s.settleRoots[ob.root] || s.escaped[ob.root]) {
			continue
		}
		pass.Report(ob.pos, "%s", s.res.message(ob.what, fn, discarded))
	}
}
