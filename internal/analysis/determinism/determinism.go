// Package determinism implements the kwlint analyzer that keeps the
// deterministic pipeline deterministic.
//
// The reproduction promises bit-identical mined features and click
// simulations across runs regardless of worker scheduling (DESIGN.md,
// internal/core/determinism_test.go). The compiler cannot see that
// contract, so this analyzer enforces the three ways code most often
// breaks it:
//
//  1. wall-clock reads: time.Now / time.Since / time.Until;
//  2. the process-global math/rand source (rand.Intn, rand.Float64, …),
//     whose stream depends on every other caller in the process;
//  3. emitting a returned slice from a map range without sorting, which
//     leaks Go's randomized map iteration order into the output.
//
// Only the DefaultPackages are checked. _test.go files
// are NOT exempt: a test that reads the wall clock or the global rand
// source is flaky in exactly the way the pipeline must not be, and the
// first-class //kwlint:ignore directive exists for the rare test that
// legitimately needs one of these constructs.
//
// As the first analyzer in the suite roster, determinism additionally
// owns the cross-cutting annotation diagnostics in every package (not
// just its own scope): unknown //kw: verbs and malformed
// //kwlint:ignore directives are reported here, exactly once per run.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"contextrank/internal/analysis/kwutil"
)

// DefaultPackages is the deterministic-pipeline scope: every package
// whose outputs must be bit-identical across runs.
const DefaultPackages = "internal/world,internal/querylog,internal/clicksim,internal/searchsim,internal/corpus,internal/core,internal/experiments,internal/eval,internal/features,internal/relevance,examples/senses/senses"

var scope = kwutil.NewScope(DefaultPackages)

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, the global math/rand source, and map-ordered output in the deterministic pipeline packages\n\n" +
		"The mined features and click simulations must be bit-identical across runs; this analyzer flags the constructs that silently break that contract.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// randConstructors are the math/rand functions that are allowed even in
// pipeline code: they build an injected source rather than draw from the
// global one. (Seed provenance is seededrand's job.)
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

func run(pass *analysis.Pass) (interface{}, error) {
	// Suite-owner duties run in every package, before the scope gate:
	// NewSuppressor reports malformed //kwlint:ignore directives and
	// ReportMalformed claims unknown //kw: verbs (each exactly once per
	// suite run, since only AnalyzerNames[0] owns them).
	sup := kwutil.NewSuppressor(pass, "determinism")
	defer sup.Finish()
	kwutil.ReportMalformed(pass, "determinism", func(pos token.Pos, problem string) {
		pass.Reportf(pos, "%s", problem)
	})
	if !scope.InScope(pass) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		sel := n.(*ast.SelectorExpr)
		pkg, name := kwutil.PkgFunc(pass.TypesInfo, sel)
		switch pkg {
		case "time":
			if name == "Now" || name == "Since" || name == "Until" {
				sup.Reportf(sel.Pos(), "time.%s reads the wall clock inside a deterministic pipeline package; inject a clock or pass timestamps in", name)
			}
		case "math/rand", "math/rand/v2":
			if !randConstructors[name] {
				sup.Reportf(sel.Pos(), "global math/rand source (rand.%s) in a deterministic pipeline package; draw from an injected *rand.Rand instead", name)
			}
		}
	})

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body != nil {
			checkMapOrder(pass, sup, body)
		}
	})

	return nil, nil
}

// checkMapOrder flags `for … := range m { s = append(s, …) }` when s is
// returned by the function and never passes through a sort. The append
// order then depends on map iteration order, which Go randomizes per run.
func checkMapOrder(pass *analysis.Pass, sup *kwutil.Suppressor, body *ast.BlockStmt) {
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
	if len(returned) == 0 {
		return
	}

	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			assign, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
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
					sup.Reportf(assign.Pos(), "%s is appended to while ranging over a map and returned without a sort; output depends on map iteration order", lhs.Name)
				}
			}
			return true
		})
		return true
	})
}
