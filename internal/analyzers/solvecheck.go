package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// Solvecheck enforces the solver-error contract PR 1 established: every
// sparse solver reports (x, iters, err), and ErrNotSPD-style failures are
// part of the result, not an afterthought. A call site that discards the
// error — or silently blanks the iteration count, the number that tells
// you a solver is drifting toward its maxIter cliff — reintroduces the
// NaN-propagation failure mode the contract was built to kill.
//
// Flagged callees: the mathx.Solve* family (SolveDense, SolveMGW) and the
// repro Compute* entry points (ComputeAllCtx, ComputeCached, and the
// compute functions themselves).
var Solvecheck = &Analyzer{
	Name: "solvecheck",
	Doc: "flags call sites that discard the err (or silently drop iters) " +
		"from the mathx solver family and the repro compute entry points",
	Run: runSolvecheck,
}

// solvecheckTargets maps package import path → required callee name
// prefix. A function or method belonging to one of these packages whose
// name starts with the prefix is under contract.
var solvecheckTargets = map[string]string{
	"nanometer/internal/mathx": "Solve",
	"nanometer/internal/repro": "Compute",
}

func runSolvecheck(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok {
					if name, yes := solverCall(pass, call); yes {
						pass.Reportf(call.Pos(),
							"result of %s discarded: the solver error (and iteration count) must be handled", name)
					}
				}
			case *ast.GoStmt:
				if name, yes := solverCall(pass, stmt.Call); yes {
					pass.Reportf(stmt.Call.Pos(),
						"result of %s discarded by go statement: the solver error must be handled", name)
				}
			case *ast.DeferStmt:
				if name, yes := solverCall(pass, stmt.Call); yes {
					pass.Reportf(stmt.Call.Pos(),
						"result of %s discarded by defer statement: the solver error must be handled", name)
				}
			case *ast.AssignStmt:
				checkSolverAssign(pass, stmt)
			}
			return true
		})
	}
	return nil
}

// checkSolverAssign inspects `x, iters, err := mathx.SolveMGW(...)`-shaped
// statements for blanked results.
func checkSolverAssign(pass *Pass, assign *ast.AssignStmt) {
	if len(assign.Rhs) != 1 {
		return
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name, yes := solverCall(pass, call)
	if !yes {
		return
	}
	sig := callSignature(pass, call)
	if sig == nil || len(assign.Lhs) != sig.Results().Len() {
		return
	}
	for i := 0; i < sig.Results().Len(); i++ {
		id, ok := assign.Lhs[i].(*ast.Ident)
		if !ok || id.Name != "_" {
			continue
		}
		res := sig.Results().At(i)
		switch {
		case isErrorType(res.Type()):
			pass.Reportf(assign.Pos(),
				"err result of %s assigned to _: solver failures (e.g. ErrNotSPD) must never be ignored", name)
		case isItersResult(sig, i):
			pass.Reportf(assign.Pos(),
				"iters result of %s silently dropped: record or inspect the iteration count "+
					"(or annotate //lint:allow solvecheck <reason>)", name)
		}
	}
}

// solverCall reports whether the call's callee is under the solver-error
// contract, returning a printable name.
func solverCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", false
	}
	obj, ok := pass.TypesInfo.Uses[id]
	if !ok {
		return "", false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	prefix, ok := solvecheckTargets[fn.Pkg().Path()]
	if !ok || !strings.HasPrefix(fn.Name(), prefix) {
		return "", false
	}
	return fn.Pkg().Name() + "." + fn.Name(), true
}

func callSignature(pass *Pass, call *ast.CallExpr) *types.Signature {
	t := pass.TypesInfo.TypeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.(*types.Signature)
	return sig
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// isItersResult reports whether result i is the iteration count of a
// (x, iters, err)-shaped solver signature: an int sitting directly before
// the trailing error.
func isItersResult(sig *types.Signature, i int) bool {
	res := sig.Results()
	if res.Len() < 2 || i != res.Len()-2 {
		return false
	}
	if !isErrorType(res.At(res.Len() - 1).Type()) {
		return false
	}
	basic, ok := res.At(i).Type().(*types.Basic)
	return ok && basic.Kind() == types.Int
}
