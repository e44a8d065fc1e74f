package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineFree forbids go statements and channel operations inside
// simulation packages. Each simulation must stay single-goroutine so
// that a run is a pure function of its Spec: host concurrency belongs
// only to internal/run's worker pool, which parallelizes across
// simulations, never within one. There is no sanctioned exception: the
// engine drives every processor body — a state machine, or a blocking
// body run as an iter.Pull coroutine — from one loop on the caller's
// goroutine, and TestNoGoroutineAllowsInSimulator pins that no allow
// directive appears inside the simulation boundary.
var GoroutineFree = &Analyzer{
	Name: "goroutinefree",
	Doc:  "forbid go statements and channel operations in simulation packages",
	Run:  runGoroutineFree,
}

func runGoroutineFree(pass *Pass) error {
	if !inScope(pass.Pkg.Path(), simScopes()) {
		return nil
	}
	scope := relScope(pass.Pkg.Path())
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(s.Pos(),
					"go statement in simulation package %s; simulations are single-goroutine — host concurrency belongs to internal/run's worker pool", scope)
			case *ast.SendStmt:
				pass.Reportf(s.Pos(), "channel send in simulation package %s; simulations are single-goroutine", scope)
			case *ast.UnaryExpr:
				if s.Op == token.ARROW {
					pass.Reportf(s.Pos(), "channel receive in simulation package %s; simulations are single-goroutine", scope)
				}
			case *ast.SelectStmt:
				pass.Reportf(s.Pos(), "select statement in simulation package %s; simulations are single-goroutine", scope)
			case *ast.RangeStmt:
				if isChanType(pass.TypesInfo.Types[s.X].Type) {
					pass.Reportf(s.Pos(), "range over channel in simulation package %s; simulations are single-goroutine", scope)
				}
			case *ast.CallExpr:
				if isBuiltin(pass, s.Fun, "close") {
					pass.Reportf(s.Pos(), "channel close in simulation package %s; simulations are single-goroutine", scope)
				}
				if isBuiltin(pass, s.Fun, "make") && isChanType(pass.TypesInfo.Types[s].Type) {
					pass.Reportf(s.Pos(), "channel construction in simulation package %s; simulations are single-goroutine", scope)
				}
			}
			return true
		})
	}
	return nil
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
