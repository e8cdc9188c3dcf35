package lint

// Shared type-resolution and blocking-operation classification for the
// flow-sensitive analyzers (ctxflow, lockflow, errflow, goroutinejoin).
// Everything here answers one of three questions about a CFG node: does
// it block, does it touch a lock, and where did its value come from.

import (
	"go/ast"
	"go/types"
	"strings"
)

// concurrencyPackages names the packages (module-relative) whose
// blocking operations must be cancellable: they sit on the experiment's
// hot path, and ARCHITECTURE.md promises ctx cancel reaches every one of
// their children. The set deliberately matches and extends
// sanctionedGoroutines — a package allowed to spawn goroutines is
// exactly a package whose blocking ops need cancellation discipline.
var concurrencyPackages = map[string]bool{
	"internal/parallel": true,
	"internal/stream":   true,
}

func concurrencyPackage(m *Module, p *Package) bool {
	return concurrencyPackages[strings.TrimPrefix(p.Path, m.Path+"/")]
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// and, for method calls, the receiver expression. Calls through function
// values or builtins resolve to nil.
func calleeFunc(p *Package, call *ast.CallExpr) (*types.Func, ast.Expr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn, nil
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn, fun.X
	}
	return nil, nil
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

// isChanType reports whether e has channel type.
func isChanType(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// selectHasDefault reports whether the select can proceed without
// blocking.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, cs := range sel.Body.List {
		if cl, ok := cs.(*ast.CommClause); ok && cl.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCalls maps a callee's full name (types.Func.FullName form) to
// the description used in findings. These are the operations that can
// park a goroutine indefinitely when the other side never shows up: the
// join primitives, child-process reaps and pipe reads.
var blockingCalls = map[string]string{
	"(*sync.WaitGroup).Wait":        "sync.WaitGroup.Wait",
	"(*os/exec.Cmd).Wait":           "exec.Cmd.Wait",
	"(*os/exec.Cmd).Run":            "exec.Cmd.Run",
	"io.ReadFull":                   "io.ReadFull pipe read",
	"io.ReadAll":                    "io.ReadAll pipe read",
	"io.Copy":                       "io.Copy pipe transfer",
	"(*bufio.Reader).ReadString":    "bufio pipe read",
	"(*bufio.Reader).ReadBytes":     "bufio pipe read",
	"(*bufio.Reader).ReadSlice":     "bufio pipe read",
	"(*bufio.Reader).Read":          "bufio pipe read",
	"(*bufio.Scanner).Scan":         "bufio pipe scan",
	"(*os/exec.Cmd).Output":         "exec.Cmd.Output",
	"(*os/exec.Cmd).CombinedOutput": "exec.Cmd.CombinedOutput",
}

// blockingOp is one potentially-parking operation found in a block.
type blockingOp struct {
	node ast.Node
	what string
}

// nodeBlockingOps classifies the blocking operations one straight-line
// node performs: bare sends, bare receives, and blocking calls.
// Deferred calls are skipped — they run at exit, not here.
func nodeBlockingOps(p *Package, n ast.Node) []blockingOp {
	var ops []blockingOp
	inspectShallow(n, func(x ast.Node) bool {
		if _, isDefer := x.(*ast.DeferStmt); isDefer && x != n {
			return false
		}
		switch op := x.(type) {
		case *ast.SendStmt:
			ops = append(ops, blockingOp{node: op, what: "bare channel send"})
		case *ast.UnaryExpr:
			if op.Op.String() == "<-" {
				ops = append(ops, blockingOp{node: op, what: "bare channel receive"})
			}
		case *ast.CallExpr:
			fn, _ := calleeFunc(p, op)
			if fn == nil {
				return true
			}
			if what, ok := blockingCalls[fn.FullName()]; ok {
				ops = append(ops, blockingOp{node: op, what: what})
			}
		}
		return true
	})
	return ops
}

// blockBlockingOps classifies the blocking operations a single block
// performs: its select or range-over-channel head marker, plus the
// node-level operations. Select comm clauses are not scanned — their
// channel operations belong to the select head, which is already
// classified wholesale.
func blockBlockingOps(p *Package, b *cfgBlock) []blockingOp {
	var ops []blockingOp
	if b.sel != nil && !selectHasDefault(b.sel) {
		ops = append(ops, blockingOp{node: b.sel, what: "select with no default"})
	}
	if b.rng != nil && isChanType(p, b.rng.X) {
		ops = append(ops, blockingOp{node: b.rng, what: "range over channel"})
	}
	for _, n := range b.nodes {
		ops = append(ops, nodeBlockingOps(p, n)...)
	}
	return ops
}

// doneChannels collects, for one function unit, the objects holding a
// ctx.Done() channel: every identifier assigned (or defined) from a
// direct call to context.Context.Done.
func doneChannels(p *Package, u *funcUnit) map[types.Object]bool {
	done := map[types.Object]bool{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isDoneCall(p, call) {
			return
		}
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := p.Info.Defs[id]; obj != nil {
				done[obj] = true
			}
			if obj := p.Info.Uses[id]; obj != nil {
				done[obj] = true
			}
		}
	}
	ast.Inspect(u.body(), func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i := range as.Lhs {
				record(as.Lhs[i], as.Rhs[i])
			}
		}
		return true
	})
	return done
}

// isDoneCall reports whether call is ctx.Done() for a context.Context
// receiver.
func isDoneCall(p *Package, call *ast.CallExpr) bool {
	fn, _ := calleeFunc(p, call)
	return fn != nil && fn.Name() == "Done" && fn.FullName() == "(context.Context).Done"
}

// commReceivesDone reports whether a select comm statement receives from
// a ctx.Done() channel: either the receive operand is a direct
// ctx.Done() call or an identifier recorded in done.
func commReceivesDone(p *Package, comm ast.Stmt, done map[types.Object]bool) bool {
	var recvExpr ast.Expr
	switch st := comm.(type) {
	case *ast.ExprStmt:
		recvExpr = st.X
	case *ast.AssignStmt:
		if len(st.Rhs) == 1 {
			recvExpr = st.Rhs[0]
		}
	}
	un, ok := ast.Unparen(recvExpr).(*ast.UnaryExpr)
	if !ok || un.Op.String() != "<-" {
		return false
	}
	ch := ast.Unparen(un.X)
	if call, ok := ch.(*ast.CallExpr); ok {
		return isDoneCall(p, call)
	}
	if id, ok := ch.(*ast.Ident); ok {
		return done[p.Info.Uses[id]]
	}
	return false
}

// selectHasDoneArm reports whether the select carries a cancellation arm.
func selectHasDoneArm(p *Package, sel *ast.SelectStmt, done map[types.Object]bool) bool {
	for _, cs := range sel.Body.List {
		cl, ok := cs.(*ast.CommClause)
		if !ok || cl.Comm == nil {
			continue
		}
		if commReceivesDone(p, cl.Comm, done) {
			return true
		}
	}
	return false
}

// errorIface is the universe error interface, the assignability target
// for errflow's type tests.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements the error interface (the
// interface itself included).
func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}
