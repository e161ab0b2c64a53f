// Package ctxflow implements the kwlint analyzer that keeps the request
// path context-threaded: inside the serve, resilience, and cluster
// routing layers, no code may mint a fresh root context, and every timer
// must have a cleanup path.
//
// The resilience layer's whole contract (DESIGN.md §8) is that
// deadlines, admission decisions, and degradation flags ride the
// request's context.Context; a context.Background() (or TODO()) past the
// handler boundary detaches everything downstream from the caller's
// deadline — timeouts stop propagating, chaos injection loses its
// per-request seed, load-shedding can no longer cancel. Similarly,
// time.After leaks its timer until it fires (a slow drip under load,
// exactly where the gate timers run per-request), and a time.NewTimer /
// time.NewTicker without a Stop leaks its channel machinery on every
// early return.
//
// Rules, inside DefaultPackages (production files only — tests
// construct context roots by definition):
//
//   - context.Background() / context.TODO() are reports; thread the ctx
//     parameter instead, or suppress with a reasoned //kwlint:ignore at
//     a genuine process-lifetime root;
//   - time.After is always a report (use NewTimer + defer Stop);
//   - time.NewTimer / time.NewTicker must have a .Stop() call on the
//     assigned variable somewhere in the same function.
package ctxflow

import (
	"go/ast"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"contextrank/internal/analysis/kwutil"
)

// DefaultPackages scopes the analyzer to the layers whose contract is
// context threading: the HTTP serve layer, the resilience middleware, and
// the cluster routing tier (router + cmd/router), where a detached
// context would sever failover and hedge cancellation from the request
// budget.
const DefaultPackages = "internal/serve,internal/resilience,internal/cluster,cmd/router"

var scope = kwutil.NewScope(DefaultPackages)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "keep the request path context-threaded, timers cleaned up\n\n" +
		"Inside the scope: no context.Background()/context.TODO() (thread the caller's ctx), no time.After (its timer leaks until it fires), and every time.NewTimer/NewTicker needs a Stop call in the same function.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	sup := kwutil.NewSuppressor(pass, "ctxflow")
	defer sup.Finish()
	if !scope.InScope(pass) {
		return nil, nil
	}

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// Per-function timer bookkeeping: declared timers and Stop calls.
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || kwutil.IsTestFile(pass.Fset, fd.Pos()) {
			return
		}
		checkFunc(pass, sup, fd)
	})

	return nil, nil
}

func checkFunc(pass *analysis.Pass, sup *kwutil.Suppressor, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	type timer struct {
		obj  interface{}   // types.Object of the bound variable
		call *ast.CallExpr // the constructor call, for reporting
		kind string        // "NewTimer" or "NewTicker"
	}
	var timers []timer // slice: reports stay in source order
	stopped := map[interface{}]bool{}

	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			pkg, name := kwutil.PkgFunc(info, n.Fun)
			switch {
			case pkg == "context" && (name == "Background" || name == "TODO"):
				sup.Reportf(n.Pos(), "context.%s() detaches the request path from its caller's deadline; thread the ctx parameter instead", name)
			case pkg == "time" && name == "After":
				sup.Reportf(n.Pos(), "time.After leaks its timer until it fires; use time.NewTimer with a deferred Stop")
			}
			// t.Stop() on any variable counts as its cleanup.
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Stop" {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil {
						stopped[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				pkg, name := kwutil.PkgFunc(info, call.Fun)
				if pkg != "time" || (name != "NewTimer" && name != "NewTicker") {
					continue
				}
				id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if !ok || id.Name == "_" {
					sup.Reportf(call.Pos(), "time.%s result must be bound to a variable so it can be Stopped", name)
					continue
				}
				if obj := info.ObjectOf(id); obj != nil {
					timers = append(timers, timer{obj: obj, call: call, kind: name})
				}
			}
		}
		return true
	})

	// Unbound constructor uses (<-time.NewTimer(d).C) have no handle to
	// stop: find constructor calls that are not the RHS of an assignment
	// we recorded. Walk again, skipping recorded ones.
	recorded := map[*ast.CallExpr]bool{}
	for _, t := range timers {
		recorded[t.call] = true
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || recorded[call] {
			return true
		}
		pkg, name := kwutil.PkgFunc(info, call.Fun)
		if pkg == "time" && (name == "NewTimer" || name == "NewTicker") {
			sup.Reportf(call.Pos(), "time.%s used without binding its result; the timer can never be Stopped", name)
		}
		return true
	})

	for _, t := range timers {
		if !stopped[t.obj] {
			sup.Reportf(t.call.Pos(), "time.%s without a Stop call in this function; defer t.Stop() to release the timer on every path", t.kind)
		}
	}
}
