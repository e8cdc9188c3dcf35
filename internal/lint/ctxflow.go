package lint

// analyzerCtxflow keeps the caller's cancellation chain intact in the
// deterministic packages:
//
//  1. A function in a deterministic package that takes a
//     context.Context must actually use it — a discarded ctx is a
//     subtree that cancellation can never reach.
//  2. context.Background()/context.TODO() must not originate in root or
//     internal/ outside sanctioned boundaries; minting a fresh root
//     context severs the caller's cancellation chain. Sanctioned
//     boundaries are: the nil-ctx compatibility guard
//     (`if ctx == nil { ctx = context.Background() }`) and direct
//     delegation to the function's own *Ctx variant.
//
// Blocking operations are not checked: the module's join and its pool
// channel sit in parallel.ForEachCtx, whose pre-cancel, cancel-midway,
// deadline and drain tests cover them, and the one other user of
// channels, dataset decode's two-stage pipeline, has a test that a
// stopped line loop releases its reader.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var analyzerCtxflow = &Analyzer{
	Name: "ctxflow",
	Doc:  "context must flow: no discarded ctx params, no fresh Background/TODO outside sanctioned boundaries",
	Run:  runCtxflow,
}

func runCtxflow(m *Module) []Finding {
	var findings []Finding
	for _, p := range m.Pkgs {
		if !deterministic(m, p) {
			continue
		}
		findings = append(findings, ctxParamFindings(m, p, packageFuncs(p))...)
		findings = append(findings, ctxRootFindings(m, p)...)
	}
	return findings
}

// funcUnit is one function whose signature ctxParamFindings checks: a
// declaration or a literal.
type funcUnit struct {
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
}

// name renders the unit for messages.
func (u *funcUnit) name() string {
	if u.decl != nil {
		return u.decl.Name.Name
	}
	return "function literal"
}

// body returns the unit's body block statement.
func (u *funcUnit) body() *ast.BlockStmt {
	if u.decl != nil {
		return u.decl.Body
	}
	return u.lit.Body
}

// funcType returns the unit's signature AST.
func (u *funcUnit) funcType() *ast.FuncType {
	if u.decl != nil {
		return u.decl.Type
	}
	return u.lit.Type
}

// packageFuncs lists every function body in the package — declarations
// and literals each separately, in source order.
func packageFuncs(p *Package) []*funcUnit {
	var units []*funcUnit
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					units = append(units, &funcUnit{decl: fn})
				}
			case *ast.FuncLit:
				units = append(units, &funcUnit{lit: fn})
			}
			return true
		})
	}
	return units
}

// ctxParamFindings flags context parameters that a function body never
// reads. A closure capturing ctx counts as a use — the full body is
// inspected, nested literals included, because cancellation through a
// captured ctx is still cancellation.
func ctxParamFindings(m *Module, p *Package, units []*funcUnit) []Finding {
	var findings []Finding
	for _, u := range units {
		ft := u.funcType()
		if ft.Params == nil {
			continue
		}
		for _, field := range ft.Params.List {
			if !isContextType(p, field.Type) {
				continue
			}
			for _, name := range field.Names {
				if name.Name == "_" {
					findings = append(findings, Finding{
						Pos:      m.Fset.Position(name.Pos()),
						Analyzer: "ctxflow",
						Message:  u.name() + " declares its context parameter as _; a discarded ctx makes the call subtree uncancellable — plumb it through or drop the parameter",
					})
					continue
				}
				obj := p.Info.Defs[name]
				if obj == nil || identUsed(u.body(), p, obj) {
					continue
				}
				findings = append(findings, Finding{
					Pos:      m.Fset.Position(name.Pos()),
					Analyzer: "ctxflow",
					Message:  u.name() + " never uses its context parameter " + name.Name + "; pass it to the blocking work it guards or drop it",
				})
			}
		}
	}
	return findings
}

// identUsed reports whether any identifier in body (nested function
// literals included — closure capture is a real use) resolves to obj.
func identUsed(body *ast.BlockStmt, p *Package, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}

// isContextType reports whether the type expression is context.Context.
func isContextType(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// ctxRootFindings flags context.Background()/TODO() calls outside the
// sanctioned boundary patterns.
func ctxRootFindings(m *Module, p *Package) []Finding {
	var findings []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			findings = append(findings, ctxRootInFunc(m, p, fn)...)
		}
	}
	return findings
}

func ctxRootInFunc(m *Module, p *Package, fn *ast.FuncDecl) []Finding {
	sanctioned := nilGuardSanctioned(p, fn.Body)
	var findings []Finding
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := contextRootCall(p, call)
		if name == "" || sanctioned[call] {
			return true
		}
		// Direct delegation to this function's own ctx-aware variant:
		// `func Run(...) { return RunCtx(context.Background(), ...) }` is
		// the ctx-free wrapper boundary and keeps exactly one Background
		// per wrapper.
		if parent := enclosingCall(fn.Body, call); parent != nil {
			if strings.EqualFold(calleeName(parent), fn.Name.Name+"Ctx") {
				return true
			}
		}
		findings = append(findings, Finding{
			Pos:      m.Fset.Position(call.Pos()),
			Analyzer: "ctxflow",
			Message: "context." + name + " in " + fn.Name.Name + " mints a fresh root context, severing the caller's cancellation chain; " +
				"accept a ctx parameter (or delegate through the *Ctx variant / nil-ctx guard)",
		})
		return true
	})
	return findings
}

// contextRootCall returns "Background" or "TODO" when call invokes that
// context function, "" otherwise.
func contextRootCall(p *Package, call *ast.CallExpr) string {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if n := fn.Name(); n == "Background" || n == "TODO" {
		return n
	}
	return ""
}

// nilGuardSanctioned collects the Background/TODO calls appearing as the
// sole assignment inside `if x == nil { x = context.Background() }` —
// the documented compatibility guard for callers passing a nil ctx.
func nilGuardSanctioned(p *Package, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	ok := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		ifst, isIf := n.(*ast.IfStmt)
		if !isIf || ifst.Else != nil {
			return true
		}
		bin, isBin := ifst.Cond.(*ast.BinaryExpr)
		if !isBin || bin.Op != token.EQL {
			return true
		}
		var guarded ast.Expr
		switch {
		case isNilIdent(bin.Y):
			guarded = bin.X
		case isNilIdent(bin.X):
			guarded = bin.Y
		default:
			return true
		}
		target := types.ExprString(guarded)
		for _, s := range ifst.Body.List {
			as, isAssign := s.(*ast.AssignStmt)
			if !isAssign || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				continue
			}
			if types.ExprString(as.Lhs[0]) != target {
				continue
			}
			if call, isCall := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); isCall && contextRootCall(p, call) != "" {
				ok[call] = true
			}
		}
		return true
	})
	return ok
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// enclosingCall finds the innermost call expression within root that
// carries target among its direct arguments.
func enclosingCall(root ast.Node, target *ast.CallExpr) *ast.CallExpr {
	var parent *ast.CallExpr
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if ast.Unparen(arg) == target {
				parent = call
			}
		}
		return parent == nil
	})
	return parent
}
