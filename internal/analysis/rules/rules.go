// Package rules holds the domain rules benchlint runs over this repository:
// concurrency, transaction-hygiene, and layering invariants that the generic
// go vet toolchain cannot express. Each rule is a plugin implementing
// analysis.Rule; All returns the full set in a stable order.
package rules

import (
	"go/ast"
	"go/types"
	"strings"

	"benchpress/internal/analysis"
)

// All returns every rule, in the order benchlint runs them.
func All() []analysis.Rule {
	return []analysis.Rule{
		AtomicConsistency{},
		TxnHygiene{},
		PinLeak{},
		PreparedStmtLeak{},
		ErrorDiscard{},
		ErrorSink{},
		LatchOrder{},
		DialectBoundary{},
		BareGoroutine{},
		MixParity{},
		PhaseOrder{},
		StatsWindowLock{},
		HotpathAlloc{},
	}
}

// Lookup returns the rule with the given name, or nil.
func Lookup(name string) analysis.Rule {
	for _, r := range All() {
		if r.Name() == name {
			return r
		}
	}
	return nil
}

// calleeName extracts the called function or method name from a call.
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// inInternalOrCmd reports whether a module-relative package path lies under
// internal/ or cmd/, the layers the error and statement rules bind;
// examples and tools are exempt.
func inInternalOrCmd(rel string) bool {
	return strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type()

// returnsError reports whether the call's signature includes an error
// result.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errorType) {
			return true
		}
	}
	return false
}

// hasMethod reports whether type t (or its pointer) has a method name.
func hasMethod(t types.Type, pkg *types.Package, name string) bool {
	if t == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, name)
	_, ok := obj.(*types.Func)
	return ok
}

// fieldVar resolves a selector to the struct field it reads or writes, or
// nil when the selector is not a field access.
func fieldVar(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// isAtomicValueType reports whether t is one of sync/atomic's value types
// (atomic.Int64, atomic.Bool, atomic.Pointer[T], atomic.Value, ...).
func isAtomicValueType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// atomicPkgCall returns the sync/atomic function name when call is of the
// form atomic.F(...), and "" otherwise.
func atomicPkgCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "sync/atomic" {
		return ""
	}
	return sel.Sel.Name
}
