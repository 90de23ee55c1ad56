package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// Ctxflow enforces cancellation plumbing in the serving/jobs-era packages:
// code that can block for a long time — the mathx solver family, the repro
// compute entry points, streaming trace runs, gate admission, result-store
// I/O — must be reachable from a cancellation signal.
//
// Three rules, checked per package in scope:
//
//  1. A call to a blocking API that does not itself accept a context must
//     happen inside a function (or closure nest) that takes a
//     context.Context first parameter or an *http.Request (handlers derive
//     their context from the request). Blocking APIs that take a ctx first
//     parameter are self-threading and pass.
//  2. context.Background() / context.TODO() are banned outside package
//     main and tests: mid-stack code must accept its caller's context.
//     Lifecycle roots (a queue that owns its own shutdown) annotate with
//     the reason.
//  3. A context.Context parameter, when present, must come first — a
//     buried ctx is how threading mistakes hide.
//
// Calls within the package that defines the blocking API are exempt (the
// provider's internals are its own business; the contract binds callers).
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc: "requires a context.Context (or *http.Request) in scope around " +
		"blocking compute/IO calls and bans context.Background()/TODO() " +
		"outside main and tests",
	Scope: []string{
		"nanometer/internal/serve",
		"nanometer/internal/jobs",
		"nanometer/internal/trace",
		"nanometer/internal/repro",
		"nanometer/internal/runner",
		"nanometer/internal/store",
		"nanometer/internal/powergrid",
		"nanometer/internal/scenario",
	},
	Run: runCtxflow,
}

// ctxflowBlocking classifies a called function as a blocking API,
// returning a printable name. Matching is by defining package + name
// prefix, so functions (mathx.SolveMGW), methods (Store.Get) and interface
// methods (repro.ResultStore.Get) all count.
func ctxflowBlocking(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	name := fn.Name()
	ok := false
	switch pkg.Path() {
	case "nanometer/internal/mathx":
		ok = strings.HasPrefix(name, "Solve")
	case "nanometer/internal/repro":
		ok = strings.HasPrefix(name, "Compute") || name == "Get" || name == "Put"
	case "nanometer/internal/trace":
		ok = name == "Run"
	case "nanometer/internal/serve":
		ok = name == "Acquire"
	case "nanometer/internal/store":
		ok = name == "Get" || name == "Put"
	}
	if !ok {
		return "", false
	}
	return pkg.Name() + "." + name, true
}

func runCtxflow(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkCtxParamOrder(pass, fn.Type)
			hasSignal := funcHasCtxSignal(pass, fn.Type)
			checkCtxflowBody(pass, fn.Body, hasSignal)
		}
	}
	return nil
}

// checkCtxflowBody walks a function body; signal reports whether any
// enclosing function has a ctx/request parameter. Function literals are
// new frames: they contribute their own parameters but inherit the
// enclosing signal (a closure over a ctx-bearing handler is fine).
func checkCtxflowBody(pass *Pass, body *ast.BlockStmt, signal bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			checkCtxParamOrder(pass, e.Type)
			checkCtxflowBody(pass, e.Body, signal || funcHasCtxSignal(pass, e.Type))
			return false
		case *ast.CallExpr:
			checkCtxflowCall(pass, e, signal)
		}
		return true
	})
}

func checkCtxflowCall(pass *Pass, call *ast.CallExpr, signal bool) {
	fn := calledFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	// Rule 2: no fresh root contexts mid-stack.
	if fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO") {
		pass.Reportf(call.Pos(),
			"context.%s() is banned here: accept the caller's ctx "+
				"(lifecycle roots annotate //lint:allow ctxflow <reason>)", fn.Name())
		return
	}
	// Rule 1: blocking APIs need a cancellation signal in scope.
	if fn.Pkg().Path() == pass.Pkg.Path() {
		return // provider-internal call; the contract binds callers
	}
	name, blocking := ctxflowBlocking(fn)
	if !blocking {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && signatureTakesCtxFirst(sig) {
		return // self-threading: the callee accepts ctx directly
	}
	if signal {
		return
	}
	pass.Reportf(call.Pos(),
		"%s can block but no cancellation signal is in scope: the enclosing "+
			"function must take context.Context as its first parameter "+
			"(or an *http.Request), or annotate //lint:allow ctxflow <reason>", name)
}

// checkCtxParamOrder reports a context.Context parameter not in first
// position (rule 3).
func checkCtxParamOrder(pass *Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	idx := 0
	for _, field := range ft.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(pass.TypesInfo.TypeOf(field.Type)) && idx > 0 {
			pass.Reportf(field.Pos(),
				"context.Context must be the first parameter")
		}
		idx += n
	}
}

// funcHasCtxSignal reports whether the function type carries a
// cancellation source: a context.Context or *http.Request parameter.
func funcHasCtxSignal(pass *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		if isContextType(t) || isHTTPRequestPtr(t) {
			return true
		}
	}
	return false
}

func signatureTakesCtxFirst(sig *types.Signature) bool {
	return sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type())
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func isHTTPRequestPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}

// calledFunc resolves a call's callee to a *types.Func (nil for builtins,
// conversions, and function-typed variables).
func calledFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}
