package lint

// analyzerErrflow keeps the error paths honest:
//
//  1. No discarded error results in root or internal/ — neither a bare
//     call statement nor a blank assignment may drop an error; a
//     dropped error is a silently-wrong localization result.
//  2. No ==/!= comparison of error values (nil excepted): wrapped
//     chains only match through errors.Is/errors.As.
//  3. fmt.Errorf must wrap an embedded error with %w, not %v/%s, so
//     errors.Is/As keep seeing through the new layer.
//
// Two discard idioms are exempt by design: the fmt print family
// (Fprintf to a strings.Builder cannot usefully fail, and stderr
// diagnostics are fire-and-forget), and the internal ctx-free wrapper
// pattern `_ = FooCtx(context.Background(), ...)` where the wrapper has
// no error to return and the callee's errors are delivered through its
// own result channel.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var analyzerErrflow = &Analyzer{
	Name: "errflow",
	Doc:  "no discarded errors in deterministic packages, errors.Is/As instead of ==/!=, %w (not %v) when wrapping",
	Run:  runErrflow,
}

func runErrflow(m *Module) []Finding {
	var findings []Finding
	for _, p := range m.Pkgs {
		discards := deterministic(m, p)
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.ExprStmt:
					if discards {
						findings = append(findings, bareCallFinding(m, p, x.X, "")...)
					}
				case *ast.DeferStmt:
					if discards {
						findings = append(findings, bareCallFinding(m, p, x.Call, "deferred ")...)
					}
				case *ast.AssignStmt:
					if discards {
						findings = append(findings, blankErrFindings(m, p, x)...)
					}
				case *ast.BinaryExpr:
					findings = append(findings, sentinelCompareFindings(m, p, x)...)
				case *ast.CallExpr:
					findings = append(findings, errorfWrapFindings(m, p, x)...)
				}
				return true
			})
		}
	}
	return findings
}

// errResultIndexes returns the positions of error-typed results in a
// call's result type (nil if none).
func errResultIndexes(p *Package, call *ast.CallExpr) []int {
	tv, ok := p.Info.Types[call]
	if !ok || tv.Type == nil {
		return nil
	}
	var idx []int
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				idx = append(idx, i)
			}
		}
	default:
		if isErrorType(t) {
			idx = append(idx, 0)
		}
	}
	return idx
}

// discardExemptCall recognizes the calls whose dropped error is
// accepted by convention rather than suppression.
func discardExemptCall(p *Package, call *ast.CallExpr) bool {
	fn := calleeFunc(p, call)
	if fn == nil {
		return false
	}
	full := fn.FullName()
	// fmt's print family: the only failure mode is the underlying
	// writer's, and the module's uses write to strings.Builder, stderr,
	// or an already-error-checked stream.
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return true
	}
	// strings.Builder and bytes.Buffer writes are documented to never
	// return a non-nil error.
	if strings.HasPrefix(full, "(*strings.Builder).") || strings.HasPrefix(full, "(*bytes.Buffer).") {
		return true
	}
	return false
}

// bareCallFinding flags a call statement that drops error results.
func bareCallFinding(m *Module, p *Package, e ast.Expr, prefix string) []Finding {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	if len(errResultIndexes(p, call)) == 0 || discardExemptCall(p, call) {
		return nil
	}
	return []Finding{{
		Pos:      m.Fset.Position(call.Pos()),
		Analyzer: "errflow",
		Message:  prefix + "call to " + callDisplay(p, call) + " discards its error result; handle it, return it, or record it on the result",
	}}
}

// blankErrFindings flags `_ = call` and `x, _ := call()` forms that
// drop an error result.
func blankErrFindings(m *Module, p *Package, as *ast.AssignStmt) []Finding {
	var findings []Finding
	// The 1:N form: one call, results spread over the left-hand side.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return nil
		}
		for _, i := range errResultIndexes(p, call) {
			if i >= len(as.Lhs) || !isBlankIdent(as.Lhs[i]) {
				continue
			}
			if discardExemptCall(p, call) || shimDiscardSanctioned(p, call) {
				continue
			}
			findings = append(findings, Finding{
				Pos:      m.Fset.Position(as.Lhs[i].Pos()),
				Analyzer: "errflow",
				Message:  "blank assignment discards the error result of " + callDisplay(p, call) + "; handle it, return it, or record it on the result",
			})
		}
		return findings
	}
	// The 1:1 forms, `_ = f()` among them.
	if len(as.Lhs) != len(as.Rhs) {
		return nil
	}
	for i, lhs := range as.Lhs {
		if !isBlankIdent(lhs) {
			continue
		}
		call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
		if !ok {
			continue
		}
		if len(errResultIndexes(p, call)) == 0 || discardExemptCall(p, call) || shimDiscardSanctioned(p, call) {
			continue
		}
		findings = append(findings, Finding{
			Pos:      m.Fset.Position(lhs.Pos()),
			Analyzer: "errflow",
			Message:  "blank assignment discards the error result of " + callDisplay(p, call) + "; handle it, return it, or record it on the result",
		})
	}
	return findings
}

// shimDiscardSanctioned recognizes the ctx-free wrapper discard: the
// wrapper calls its *Ctx variant with a fresh Background context and
// drops the error, because its signature has nowhere to put it and the
// real errors travel in-band.
func shimDiscardSanctioned(p *Package, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr)
	if !ok || contextRootCall(p, first) == "" {
		return false
	}
	return strings.HasSuffix(calleeName(call), "Ctx")
}

func isBlankIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// callDisplay renders a call's target for messages.
func callDisplay(p *Package, call *ast.CallExpr) string {
	if fn := calleeFunc(p, call); fn != nil {
		if fn.Pkg() != nil && fn.Type().(*types.Signature).Recv() == nil {
			return fn.Pkg().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	if name := calleeName(call); name != "" {
		return name
	}
	return "function value"
}

// sentinelCompareFindings flags error ==/!= error comparisons. Nil
// checks stay legal — `err != nil` is the language's error protocol —
// and comparing two interface identities is what errors.Is exists to
// replace.
func sentinelCompareFindings(m *Module, p *Package, bin *ast.BinaryExpr) []Finding {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return nil
	}
	if isNilIdent(bin.X) || isNilIdent(bin.Y) {
		return nil
	}
	xt, xok := p.Info.Types[bin.X]
	yt, yok := p.Info.Types[bin.Y]
	if !xok || !yok || !isErrorType(xt.Type) || !isErrorType(yt.Type) {
		return nil
	}
	return []Finding{{
		Pos:      m.Fset.Position(bin.OpPos),
		Analyzer: "errflow",
		Message:  "error compared with " + bin.Op.String() + "; wrapped chains never match identity — use errors.Is or errors.As",
	}}
}

// errorfWrapFindings flags fmt.Errorf calls that format an error-typed
// argument with a verb other than %w.
func errorfWrapFindings(m *Module, p *Package, call *ast.CallExpr) []Finding {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" || len(call.Args) < 2 {
		return nil
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return nil
	}
	verbs := formatVerbs(lit.Value)
	var findings []Finding
	for i, arg := range call.Args[1:] {
		tv, ok := p.Info.Types[arg]
		if !ok || !isErrorType(tv.Type) {
			continue
		}
		verb := "%v"
		if i < len(verbs) {
			verb = verbs[i]
		}
		if verb == "%w" {
			continue
		}
		findings = append(findings, Finding{
			Pos:      m.Fset.Position(arg.Pos()),
			Analyzer: "errflow",
			Message:  "fmt.Errorf embeds an error with " + verb + "; use %w so errors.Is/As can unwrap through this layer",
		})
	}
	return findings
}

// formatVerbs extracts the argument-consuming verbs of a format string
// literal, in order. The parse is deliberately simple — flags, width,
// and precision are skipped; %% consumes nothing — and is only used to
// pair error-typed arguments with their verb.
func formatVerbs(quoted string) []string {
	var verbs []string
	s := quoted
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			continue
		}
		j := i + 1
		for j < len(s) && strings.ContainsRune("+-# 0123456789.*", rune(s[j])) {
			j++
		}
		if j >= len(s) {
			break
		}
		if s[j] == '%' {
			i = j
			continue
		}
		verbs = append(verbs, "%"+string(s[j]))
		i = j
	}
	return verbs
}
