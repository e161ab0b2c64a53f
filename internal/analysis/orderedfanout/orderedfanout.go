// Package orderedfanout implements the kwlint analyzer that keeps worker
// fan-out deterministic.
//
// The pipeline's parallelism contract (internal/par, DESIGN.md) is that
// results are always collected by *input index*, never by arrival order:
// a bounded pool writes result i into slot i, so the merged output is
// bit-identical for every worker count and schedule. The classic way to
// break that contract is the idiomatic-looking collector loop
//
//	for r := range results {        // a channel fed by workers
//	    out = append(out, r)        // arrival order = scheduling order
//	}
//
// which threads goroutine scheduling straight into the output. This
// analyzer flags, inside the deterministic-pipeline packages:
//
//  1. appending to a returned slice while ranging over a channel, unless
//     the slice is sorted before it escapes;
//  2. floating-point accumulation (+=, -=, *=, /=) into a variable while
//     ranging over a channel — FP addition does not reassociate, so even
//     a "commutative" sum differs between schedules.
//
// Index-addressed writes (out[r.idx] = r) and integer counters are fine
// and not flagged; par.Map produces the former shape. _test.go files are
// NOT exempt — a test collecting worker results in arrival order is
// flaky for the same reason production code would be; suppress a
// deliberate case with a reasoned //kwlint:ignore.
package orderedfanout

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"contextrank/internal/analysis/determinism"
	"contextrank/internal/analysis/kwutil"
)

var scope = kwutil.NewScope(determinism.DefaultPackages + ",internal/par")

var Analyzer = &analysis.Analyzer{
	Name: "orderedfanout",
	Doc: "forbid arrival-order result collection from channels in the deterministic pipeline packages\n\n" +
		"Worker results must be collected by input index (par.Map), not in channel-arrival order: appending to a returned slice or accumulating floats while ranging over a channel makes the output depend on goroutine scheduling.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	sup := kwutil.NewSuppressor(pass, "orderedfanout")
	defer sup.Finish()
	if !scope.InScope(pass) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body != nil {
			checkChannelCollect(pass, sup, body)
		}
	})

	return nil, nil
}

// checkChannelCollect walks one function body and flags arrival-order
// collection inside `for … := range ch` loops.
func checkChannelCollect(pass *analysis.Pass, sup *kwutil.Suppressor, body *ast.BlockStmt) {
	returned := map[types.Object]bool{}
	sorted := map[types.Object]bool{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				for _, obj := range kwutil.IdentObjects(pass.TypesInfo, res) {
					returned[obj] = true
				}
			}
		case *ast.CallExpr:
			if kwutil.IsSortCall(pass.TypesInfo, n) {
				for _, arg := range n.Args {
					for _, obj := range kwutil.IdentObjects(pass.TypesInfo, arg) {
						sorted[obj] = true
					}
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			assign, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			switch assign.Tok.String() {
			case "=", ":=":
				checkAppend(pass, sup, assign, returned, sorted)
			case "+=", "-=", "*=", "/=":
				checkFloatAccum(pass, sup, assign)
			}
			return true
		})
		return true
	})
}

// checkAppend flags `s = append(s, …)` when s is returned without a sort:
// the caller then sees the results in channel-arrival order.
func checkAppend(pass *analysis.Pass, sup *kwutil.Suppressor, assign *ast.AssignStmt, returned, sorted map[types.Object]bool) {
	for i, rhs := range assign.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(assign.Lhs) <= i {
			continue
		}
		if fun, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fun.Name != "append" {
			continue
		}
		lhs, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.TypesInfo.ObjectOf(lhs)
		if obj != nil && returned[obj] && !sorted[obj] {
			sup.Reportf(assign.Pos(), "%s is appended to while ranging over a channel and returned without a sort; results arrive in scheduling order — collect by input index (par.Map) instead", lhs.Name)
		}
	}
}

// checkFloatAccum flags compound float accumulation into a plain variable:
// FP addition is not associative, so the sum depends on arrival order even
// when every contribution is eventually included.
func checkFloatAccum(pass *analysis.Pass, sup *kwutil.Suppressor, assign *ast.AssignStmt) {
	for _, lhs := range assign.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		tv, ok := pass.TypesInfo.Types[id]
		if !ok {
			continue
		}
		if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsFloat != 0 {
			sup.Reportf(assign.Pos(), "floating-point accumulation into %s while ranging over a channel depends on arrival order; compute per-item partials with par.Map and merge them in index order", id.Name)
		}
	}
}
