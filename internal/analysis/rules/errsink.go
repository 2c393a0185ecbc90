package rules

import (
	"go/ast"
	"go/types"

	"benchpress/internal/analysis"
	"benchpress/internal/analysis/callgraph"
)

// factErrSink marks functions whose error result may originate from one of
// the database-surface sinks in discardNames — directly, through a tainted
// local, or wrapped by fmt.Errorf / errors.Join. Stored as uint64(1).
const factErrSink = "errsink.wraps"

// ErrorSink is the interprocedural sibling of ErrorDiscard: that rule flags
// implicitly discarded errors from the sinks themselves (Exec, Commit,
// Close, ...), this one follows the error one level up. A helper that
// forwards or wraps a sink error — a loader's Close that commits, a harness
// step that rolls back — exports a fact, and any call site in any package
// that discards the helper's error with a bare statement, defer, or go is
// flagged. Calls whose name is itself in discardNames are left to
// ErrorDiscard so a finding is never reported twice.
//
// Like ErrorDiscard, the rule is scoped to internal/ and cmd/.
type ErrorSink struct{}

// Name implements analysis.Rule.
func (ErrorSink) Name() string { return "error-sink" }

// Doc implements analysis.Rule.
func (ErrorSink) Doc() string {
	return "no silently discarded errors from helpers that forward database errors across packages"
}

// CheckProgram implements analysis.ProgramRule.
func (ErrorSink) CheckProgram(pass *analysis.ProgramPass) {
	prog := pass.Prog
	solve(prog, func(n *callgraph.Node) bool {
		return wrapsSinkError(prog, n) && prog.Facts.Export(n.Func, factErrSink, uint64(1))
	})
	for _, n := range prog.Graph.Nodes() {
		if inInternalOrCmd(prog.RelPath(n.Path)) {
			flagSinkDiscards(pass, n)
		}
	}
}

// errSinkCall reports whether call produces a sink-derived error: a call to
// one of the discardNames sinks returning an error, or to a function already
// known to forward one.
func errSinkCall(prog *analysis.Program, info *types.Info, call *ast.CallExpr) bool {
	if discardNames[calleeName(call)] && returnsError(info, call) {
		return true
	}
	for _, callee := range prog.Graph.Resolve(call) {
		if prog.Facts.Bits(callee, factErrSink) != 0 {
			return true
		}
	}
	return false
}

// errWrapCall matches the stdlib error-combinator calls the taint follows
// through: fmt.Errorf and errors.Join.
func errWrapCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	p := pn.Imported().Path()
	return (p == "fmt" && sel.Sel.Name == "Errorf") ||
		(p == "errors" && sel.Sel.Name == "Join")
}

// wrapsSinkError computes one function's summary under the current facts:
// does some return statement hand back a sink-derived error?
func wrapsSinkError(prog *analysis.Program, n *callgraph.Node) bool {
	info := n.Info
	tainted := map[types.Object]bool{}
	var carrying func(e ast.Expr) bool
	carrying = func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			if errSinkCall(prog, info, x) {
				return true
			}
			if errWrapCall(info, x) {
				for _, a := range x.Args {
					if carrying(a) {
						return true
					}
				}
			}
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				return tainted[o]
			}
		}
		return false
	}

	// Taint locals to a fixpoint within the function: assignment chains like
	// err := c.Commit(); werr := fmt.Errorf("...: %w", err) converge in a
	// couple of passes.
	for {
		grew := false
		ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
			a, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			carries := false
			for _, rhs := range a.Rhs {
				if carrying(rhs) {
					carries = true
					break
				}
			}
			if !carries {
				return true
			}
			for _, lhs := range a.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
					o := info.Uses[id]
					if o == nil {
						o = info.Defs[id]
					}
					if o != nil && types.Identical(o.Type(), errorType) && !tainted[o] {
						tainted[o] = true
						grew = true
					}
				}
			}
			return true
		})
		if !grew {
			break
		}
	}

	// Named error results make bare returns carriers too.
	var namedErrs []types.Object
	if res := n.Decl.Type.Results; res != nil {
		for _, f := range res.List {
			for _, nm := range f.Names {
				if o := info.Defs[nm]; o != nil && types.Identical(o.Type(), errorType) {
					namedErrs = append(namedErrs, o)
				}
			}
		}
	}

	wraps := false
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		if wraps {
			return false
		}
		r, ok := m.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(r.Results) == 0 {
			for _, o := range namedErrs {
				if tainted[o] {
					wraps = true
				}
			}
			return true
		}
		for _, e := range r.Results {
			if carrying(e) {
				wraps = true
			}
		}
		return true
	})
	return wraps
}

// flagSinkDiscards reports implicit discards of calls to fact-carrying
// functions in one body.
func flagSinkDiscards(pass *analysis.ProgramPass, n *callgraph.Node) {
	prog := pass.Prog
	info := n.Info
	implicitDiscards(n.Decl.Body, func(call *ast.CallExpr, how string) {
		name := calleeName(call)
		if discardNames[name] || !returnsError(info, call) {
			return
		}
		for _, callee := range prog.Graph.Resolve(call) {
			if prog.Facts.Bits(callee, factErrSink) != 0 {
				pass.Report(call.Pos(),
					"error returned by %s is silently %s, but %s forwards a database error (Commit/Exec/Flush and friends) from its callees; handle it or assign it to _ explicitly",
					name, how, name)
				return
			}
		}
	})
}
