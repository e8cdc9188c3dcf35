package lint

// Call and type resolution shared by ctxflow and errflow: which function
// a call invokes, and whether a type is an error.

import (
	"go/ast"
	"go/types"
)

// calleeFunc resolves a call expression to the *types.Func it invokes.
// Calls through function values or builtins resolve to nil.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = p.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = p.Info.Uses[fun.Sel].(*types.Func)
	}
	return fn
}

// calleeName renders the bare name a call is spelled with — the final
// identifier for both f(...) and x.f(...) — or "" for anything else.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// errorIface is the universe error interface, the assignability target
// for errflow's type tests.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements the error interface (the
// interface itself included).
func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}
