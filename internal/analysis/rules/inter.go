package rules

// Shared plumbing for the interprocedural rules (the obligation analysis
// behind txn-hygiene, pin-leak and prepared-stmt-leak, plus latch-order and
// error-sink): the summary fixpoint, resolving expressions to their root
// objects, and mapping per-parameter fact bitsets between a callee's
// declaration and a call site.
//
// The parameter bit layout is unified across rules: bit 0 is the receiver
// (never set for plain functions), bit i+1 is the i-th declared parameter.

import (
	"go/ast"
	"go/token"
	"go/types"

	"benchpress/internal/analysis"
	"benchpress/internal/analysis/callgraph"
)

// solve runs step over every call-graph node, round after round, until a
// whole round reports no fact change. step reports whether it grew a fact;
// facts must grow monotonically for the loop to terminate.
func solve(prog *analysis.Program, step func(n *callgraph.Node) bool) {
	for changed := true; changed; {
		changed = false
		for _, n := range prog.Graph.Nodes() {
			if step(n) {
				changed = true
			}
		}
	}
}

// rootObj resolves the base identifier of an lvalue-ish expression —
// x, x.f, x.f[i], (*x).f, &x.f — to the object x refers to. It returns nil
// for expressions that do not bottom out in a plain identifier (call
// results, composite literals, ...). Rules use the root as a coarse alias
// class: anything reachable from the same variable is "the same resource".
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				return o
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// identObj returns the object of e when e is exactly an identifier, modulo
// parentheses and a leading &. Unlike rootObj it does not see through field
// selections: it identifies expressions that denote the tracked value
// itself, not something reachable from it.
func identObj(info *types.Info, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// paramObjs returns the unified parameter objects of a declaration: index 0
// is the receiver (nil for plain functions or unnamed receivers), index i+1
// the i-th declared parameter. The slice indexes match the parameter fact
// bit layout.
func paramObjs(info *types.Info, fd *ast.FuncDecl) []types.Object {
	out := []types.Object{nil}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		out[0] = info.Defs[fd.Recv.List[0].Names[0]]
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			if len(f.Names) == 0 {
				out = append(out, nil) // unnamed parameter still occupies its slot
			}
			for _, nm := range f.Names {
				out = append(out, info.Defs[nm])
			}
		}
	}
	return out
}

// argForBit maps one bit of a callee's parameter fact back to the call-site
// expression bound to that parameter: the receiver expression for bit 0,
// the positional argument otherwise. Returns nil when the call shape does
// not bind the parameter (method expressions, variadic overflow).
func argForBit(call *ast.CallExpr, callee *types.Func, bit int) ast.Expr {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if bit == 0 {
		if sig.Recv() == nil {
			return nil
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return sel.X
		}
		return nil
	}
	if i := bit - 1; i < len(call.Args) {
		return call.Args[i]
	}
	return nil
}

// eachBit calls fn for every set bit in bits, lowest first.
func eachBit(bits uint64, fn func(bit int)) {
	for b := 0; bits != 0 && b < 64; b++ {
		if bits&(1<<b) != 0 {
			bits &^= 1 << b
			fn(b)
		}
	}
}
