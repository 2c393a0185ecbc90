package rules

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"benchpress/internal/analysis"
	"benchpress/internal/analysis/callgraph"
)

// Latch classes, in the documented acquisition order of the storage layer
// (see internal/sqldb/storage): primary index latch before secondary index
// latches (ordinal order), before a segment's mu, before row latches.
const (
	latchPrimary = iota
	latchSecondary
	latchSegment
	latchRow
	latchClasses
)

// factLatchAcquires is the may-acquire bitset: "calling this function may
// acquire a latch of class i" (transitively, closures included).
const factLatchAcquires = "latch.acquires"

var latchClassName = [latchClasses]string{
	"primary index latch",
	"secondary index latch",
	"segment latch",
	"row latch",
}

// latchSingleton marks classes with a single instance per table, where
// acquiring while already holding the same class is a self-deadlock.
// Secondary and row latches exist per index/per row and may legally nest in
// ordinal order, so same-class nesting is allowed there.
var latchSingleton = [latchClasses]bool{latchPrimary: true, latchSegment: true}

// LatchOrder statically verifies the storage layer's documented lock order:
// within one function the latch classes must be acquired in rank order
// (primary → secondary → segment → row), and a call made while holding a
// latch must not — directly or transitively — acquire a latch of equal or
// lower rank. Held sets are inferred linearly (Lock opens, Unlock closes,
// deferred Unlock holds to the end), matching the stats-window rule;
// function literals are scanned as their own linear bodies and their
// may-acquire effect is charged to the call they are passed to.
//
// Latches are classified by the storage layer's naming convention, so the
// rule needs no dependency on the storage package itself: methods on a
// Latched value reached through a field named "primary" are the primary
// latch and any other Latched is a secondary latch; "mu" fields of segment
// and Row are the segment and row latches; Lock/RLock on a Row is the row
// latch.
type LatchOrder struct{}

// Name implements analysis.Rule.
func (LatchOrder) Name() string { return "latch-order" }

// Doc implements analysis.Rule.
func (LatchOrder) Doc() string {
	return "storage latches must be acquired in the documented order: primary, secondary, segment, row"
}

// CheckProgram implements analysis.ProgramRule.
func (LatchOrder) CheckProgram(pass *analysis.ProgramPass) {
	prog := pass.Prog
	solve(prog, func(n *callgraph.Node) bool {
		bits := directLatchAcquires(n.Info, n.Decl.Body)
		for _, e := range n.Out {
			for _, callee := range e.Callees {
				bits |= prog.Facts.Bits(callee, factLatchAcquires)
			}
		}
		return prog.Facts.ExportBits(n.Func, factLatchAcquires, bits)
	})
	for _, n := range prog.Graph.Nodes() {
		checkLatchBody(pass, n, n.Decl.Body)
		ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
			if lit, ok := m.(*ast.FuncLit); ok {
				checkLatchBody(pass, n, lit.Body)
			}
			return true
		})
	}
}

const (
	latchOpNone = iota
	latchOpAcquire
	latchOpRelease
)

// classifyLatch matches Lock/RLock/Unlock/RUnlock calls against the storage
// naming convention, returning the latch class and the operation.
func classifyLatch(info *types.Info, call *ast.CallExpr) (int, int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0, latchOpNone
	}
	var op int
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = latchOpAcquire
	case "Unlock", "RUnlock":
		op = latchOpRelease
	default:
		return 0, latchOpNone
	}
	pkg, name := latchNamed(info.TypeOf(sel.X))
	switch name {
	case "Latched":
		if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok && inner.Sel.Name == "primary" {
			return latchPrimary, op
		}
		return latchSecondary, op
	case "Row":
		return latchRow, op
	case "Mutex", "RWMutex":
		if pkg != "sync" {
			return 0, latchOpNone
		}
		// x.mu.Lock(): classify by the type owning the mu field.
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok || inner.Sel.Name != "mu" {
			return 0, latchOpNone
		}
		switch _, owner := latchNamed(info.TypeOf(inner.X)); owner {
		case "segment":
			return latchSegment, op
		case "Row":
			return latchRow, op
		}
	}
	return 0, latchOpNone
}

// latchNamed unwraps pointers and reports the named type's package path and
// name, or empty strings for unnamed types.
func latchNamed(t types.Type) (pkgPath, name string) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := n.Obj()
	if obj.Pkg() != nil {
		pkgPath = obj.Pkg().Path()
	}
	return pkgPath, obj.Name()
}

// directLatchAcquires scans a body (function literals included) for latch
// acquisitions, for the may-acquire summary.
func directLatchAcquires(info *types.Info, body *ast.BlockStmt) uint64 {
	var bits uint64
	ast.Inspect(body, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if class, op := classifyLatch(info, call); op == latchOpAcquire {
				bits |= 1 << class
			}
		}
		return true
	})
	return bits
}

// funcLitAcquires is the may-acquire effect of one function literal: its
// direct acquisitions plus its callees' facts. Used to charge a closure's
// latches to the call site it is passed to (the closure's own edges are
// folded into the enclosing declaration and would otherwise be missed
// mid-body).
func funcLitAcquires(prog *analysis.Program, info *types.Info, lit *ast.FuncLit) uint64 {
	var bits uint64
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if class, op := classifyLatch(info, call); op != latchOpNone {
			if op == latchOpAcquire {
				bits |= 1 << class
			}
			return true
		}
		for _, callee := range prog.Graph.Resolve(call) {
			bits |= prog.Facts.Bits(callee, factLatchAcquires)
		}
		return true
	})
	return bits
}

// latchEvent is one position-ordered occurrence in a body: a latch
// acquire/release, or a call with a may-acquire effect.
type latchEvent struct {
	pos   token.Pos
	kind  int // evLatchAcq, evLatchRel, evLatchDeferRel, evLatchCall
	class int
	bits  uint64 // for evLatchCall
	call  *ast.CallExpr
}

const (
	evLatchAcq = iota
	evLatchRel
	evLatchDeferRel
	evLatchCall
)

// checkLatchBody runs linear held-set inference over one body, skipping
// nested function literals (they are checked as their own bodies and their
// effect is applied at the call they are an argument of).
func checkLatchBody(pass *analysis.ProgramPass, n *callgraph.Node, body *ast.BlockStmt) {
	prog := pass.Prog
	info := n.Info
	var events []latchEvent
	var visit func(root ast.Node, deferred bool)
	visit = func(root ast.Node, deferred bool) {
		ast.Inspect(root, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				visit(x.Call, true)
				return false
			case *ast.CallExpr:
				if class, op := classifyLatch(info, x); op != latchOpNone {
					kind := evLatchAcq
					if op == latchOpRelease {
						kind = evLatchRel
						if deferred {
							kind = evLatchDeferRel
						}
					}
					events = append(events, latchEvent{pos: x.Pos(), kind: kind, class: class})
					return true
				}
				var bits uint64
				for _, callee := range prog.Graph.Resolve(x) {
					bits |= prog.Facts.Bits(callee, factLatchAcquires)
				}
				for _, a := range x.Args {
					if lit, ok := a.(*ast.FuncLit); ok {
						bits |= funcLitAcquires(prog, info, lit)
					}
				}
				if bits != 0 {
					events = append(events, latchEvent{pos: x.Pos(), kind: evLatchCall, bits: bits, call: x})
				}
			}
			return true
		})
	}
	visit(body, false)

	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	var held [latchClasses]int
	for _, ev := range events {
		switch ev.kind {
		case evLatchAcq:
			for a := 0; a < latchClasses; a++ {
				if held[a] == 0 {
					continue
				}
				if a > ev.class {
					pass.Report(ev.pos,
						"acquiring the %s while the %s is held inverts the documented latch order (primary → secondary → segment → row)",
						latchClassName[ev.class], latchClassName[a])
				} else if a == ev.class && latchSingleton[a] {
					pass.Report(ev.pos,
						"acquiring the %s while it is already held (self-deadlock)",
						latchClassName[ev.class])
				}
			}
			held[ev.class]++
		case evLatchRel:
			if held[ev.class] > 0 {
				held[ev.class]--
			}
		case evLatchDeferRel:
			// Deferred unlock: the latch stays held to the end of the body.
		case evLatchCall:
			eachBit(ev.bits, func(class int) {
				for a := class + 1; a < latchClasses; a++ {
					if held[a] > 0 {
						pass.Report(ev.pos,
							"call to %s may acquire the %s while the %s is held, inverting the documented latch order",
							calleeName(ev.call), latchClassName[class], latchClassName[a])
					}
				}
			})
		}
	}
}
