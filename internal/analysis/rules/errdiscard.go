package rules

import (
	"go/ast"

	"benchpress/internal/analysis"
)

// discardNames are the database-surface methods whose errors must never be
// dropped on the floor: a silently failed Commit or Exec corrupts every
// measurement downstream of it.
var discardNames = map[string]bool{
	"Exec": true, "Query": true, "QueryRow": true,
	"Commit": true, "Rollback": true, "Close": true,
	"Begin": true, "BeginReadOnly": true, "Flush": true,
}

// ErrorDiscard flags calls to Exec/Query/Commit/Rollback/Close (and
// friends) whose error result is implicitly discarded: a bare expression
// statement, a defer, or a go statement. Explicitly assigning the error to
// the blank identifier (`_ = conn.Rollback()`) is allowed — it documents a
// deliberate decision — and anything else requires a //lint:ignore with a
// reason. The rule is scoped to internal/ and cmd/; examples are exempt.
type ErrorDiscard struct{}

// Name implements analysis.Rule.
func (ErrorDiscard) Name() string { return "error-discard" }

// Doc implements analysis.Rule.
func (ErrorDiscard) Doc() string {
	return "no silently discarded errors from Exec/Query/Commit/Rollback/Close in internal/ and cmd/"
}

// Check implements analysis.Rule.
func (ErrorDiscard) Check(pass *analysis.Pass) {
	if !inInternalOrCmd(pass.RelPath()) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		implicitDiscards(f, func(call *ast.CallExpr, how string) {
			name := calleeName(call)
			if discardNames[name] && returnsError(info, call) {
				pass.Report(call.Pos(),
					"error returned by %s is silently %s; handle it or assign it to _ explicitly",
					name, how)
			}
		})
	}
}

// implicitDiscards calls fn for every call under root whose results are
// dropped without a word: a bare expression statement, a defer, or a go
// statement. how names the form for the message.
func implicitDiscards(root ast.Node, fn func(call *ast.CallExpr, how string)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if c, ok := s.X.(*ast.CallExpr); ok {
				fn(c, "discarded")
			}
		case *ast.DeferStmt:
			fn(s.Call, "discarded by defer")
		case *ast.GoStmt:
			fn(s.Call, "discarded by go statement")
		}
		return true
	})
}
