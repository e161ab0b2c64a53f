// Package poolalias implements the kwlint analyzer that enforces the
// pooled-scratch aliasing contract of DESIGN.md §10: memory obtained
// from a sync.Pool may not alias anything a function returns.
//
// The detect/framework/searchsim hot paths rent scratch buffers from
// pools and put them back on exit; a result slice that still points into
// the scratch is corrupted by the next request that rents it. The
// runtime makes this bug intermittent; the analyzer makes it a report.
//
// The check is an intra-procedural taint walk. Taint sources are calls
// to (sync.Pool).Get and calls to functions known to hand out the pooled
// object (see below). Taint flows through assignments, field/index/slice
// projections, type assertions, and calls that receive a tainted
// argument. Returning a tainted value is the sink — with one deliberate
// carve-out per level:
//
//   - returning the pooled object itself (the root) is the accessor
//     pattern (getScratch/putScratch): ownership transfers whole, and
//     the function is recorded in an exported fact so its callers' taint
//     starts where it left off — across packages;
//   - returning a projection or derivative of the root is the bug.
//
// Functions annotated //kw:fresh declare "my result never aliases my
// inputs or pooled state" (detect.resolveCollisions documents exactly
// this); their call results are untainted, and the assertion travels as
// a fact. Parameters are never taint sources: a function handed scratch
// by its caller may return a view into it, and its callers hold the
// taint.
package poolalias

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"

	"contextrank/internal/analysis/kwutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolalias",
	Doc: "forbid returning values that alias sync.Pool-managed scratch\n\n" +
		"Taint-tracks (sync.Pool).Get results through a function body; returning a projection of pooled memory is a report. Returning the pooled object whole is the accessor pattern and is recorded as a fact for callers. //kw:fresh asserts a function's result is freshly allocated.",
	Requires:  []*analysis.Analyzer{inspect.Analyzer},
	FactTypes: []analysis.Fact{(*pooledFact)(nil), (*freshFact)(nil)},
	Run:       run,
}

// pooledFact marks a function that returns the pooled object itself
// (a pool accessor): its results carry root taint at every call site.
type pooledFact struct{}

func (*pooledFact) AFact()         {}
func (*pooledFact) String() string { return "returnsPooled" }

// freshFact carries a //kw:fresh annotation across packages.
type freshFact struct{}

func (*freshFact) AFact()         {}
func (*freshFact) String() string { return "fresh" }

// Taint levels.
const (
	notTainted = iota
	derived    // aliases some part of pooled memory
	root       // is the pooled object itself
)

func run(pass *analysis.Pass) (interface{}, error) {
	sup := kwutil.NewSuppressor(pass, "poolalias")
	kwutil.ReportMalformed(pass, "poolalias", func(pos token.Pos, problem string) {
		pass.Reportf(pos, "%s", problem)
	})

	var (
		decls  []*ast.FuncDecl
		fnOf   = map[*ast.FuncDecl]*types.Func{}
		fresh  = map[*types.Func]bool{}
		docPos = map[token.Pos]bool{}
	)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			decls = append(decls, fd)
			fnOf[fd] = fn
			if fd.Doc != nil {
				for _, c := range fd.Doc.List {
					docPos[c.Pos()] = true
				}
			}
			if kwutil.HasDirective(fd.Doc, "fresh") {
				fresh[fn] = true
				pass.ExportObjectFact(fn, &freshFact{})
			}
		}
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, st, _ := kwutil.ParseDirective(c)
				if st == kwutil.DirectiveOK && d.Verb == "fresh" && !docPos[c.Pos()] {
					pass.Reportf(c.Pos(), "misplaced //kw:fresh: it only takes effect in the doc comment of a function declaration")
				}
			}
		}
	}

	// Fixpoint over local accessors: a function returning the root of
	// another local accessor's result is itself an accessor.
	tw := &taintWalker{pass: pass, fresh: fresh, pooled: map[*types.Func]bool{}}
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			fn := fnOf[fd]
			if fd.Body == nil || tw.pooled[fn] {
				continue
			}
			if tw.analyze(fd, nil) {
				tw.pooled[fn] = true
				changed = true
			}
		}
	}
	for fn := range tw.pooled {
		pass.ExportObjectFact(fn, &pooledFact{})
	}

	// Reporting pass, with the accessor set complete.
	for _, fd := range decls {
		if fd.Body == nil {
			continue
		}
		tw.analyze(fd, sup)
	}

	sup.Finish()
	return nil, nil
}

type taintWalker struct {
	pass   *analysis.Pass
	fresh  map[*types.Func]bool
	pooled map[*types.Func]bool
}

// analyze taint-walks one function. With sup == nil it only answers
// "does this function return the pooled root" (the accessor fixpoint);
// with sup set it reports derived-taint returns.
func (w *taintWalker) analyze(fd *ast.FuncDecl, sup *kwutil.Suppressor) (returnsRoot bool) {
	info := w.pass.TypesInfo
	taint := map[types.Object]int{}

	// Named results, for naked returns.
	var namedResults []types.Object
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if obj := info.ObjectOf(name); obj != nil {
					namedResults = append(namedResults, obj)
				}
			}
		}
	}

	setObj := func(e ast.Expr, lvl int) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return false
		}
		if taint[obj] < lvl {
			taint[obj] = lvl
			return true
		}
		return false
	}

	// Propagate through assignments until stable (bounded: taint only
	// grows, over finitely many objects).
	for pass, changed := 0, true; changed && pass < 16; pass++ {
		changed = false
		ast.Inspect(fd, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						if lvl := w.exprTaint(taint, n.Rhs[i]); lvl != notTainted && setObj(n.Lhs[i], lvl) {
							changed = true
						}
					}
				} else if len(n.Rhs) == 1 { // x, ok := v.(T) and multi-return calls
					lvl := w.exprTaint(taint, n.Rhs[0])
					for _, lhs := range n.Lhs {
						if lvl != notTainted && setObj(lhs, lvl) {
							changed = true
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						if lvl := w.exprTaint(taint, n.Values[i]); lvl != notTainted && setObj(name, lvl) {
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				if w.exprTaint(taint, n.X) != notTainted {
					// Elements of pooled storage alias it.
					if n.Value != nil && setObj(n.Value, derived) {
						changed = true
					}
				}
			}
			return true
		})
	}

	// Sinks: returned expressions.
	ast.Inspect(fd, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// A return inside a closure leaves the closure, not this
			// function: not a sink here.
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		exprs := ret.Results
		if len(exprs) == 0 {
			for _, obj := range namedResults {
				switch taint[obj] {
				case root:
					returnsRoot = true
				case derived:
					if sup != nil {
						sup.Reportf(ret.Pos(), "returned value %s aliases pooled scratch; copy into a fresh allocation or mark the producer //kw:fresh", obj.Name())
					}
				}
			}
			return true
		}
		for _, e := range exprs {
			switch w.exprTaint(taint, e) {
			case root:
				returnsRoot = true
			case derived:
				if sup != nil {
					sup.Reportf(e.Pos(), "returned value aliases pooled scratch; copy into a fresh allocation or mark the producer //kw:fresh")
				}
			}
		}
		return true
	})
	return returnsRoot
}

// exprTaint computes the taint level of one expression.
func (w *taintWalker) exprTaint(taint map[types.Object]int, e ast.Expr) int {
	info := w.pass.TypesInfo
	e = ast.Unparen(e)

	// Values of basic type cannot alias pooled storage.
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		if _, basic := tv.Type.Underlying().(*types.Basic); basic {
			return notTainted
		}
	}

	switch e := e.(type) {
	case *ast.Ident:
		if obj := info.ObjectOf(e); obj != nil {
			return taint[obj]
		}
	case *ast.SelectorExpr:
		if w.exprTaint(taint, e.X) != notTainted {
			return derived
		}
	case *ast.IndexExpr:
		if w.exprTaint(taint, e.X) != notTainted {
			return derived
		}
	case *ast.SliceExpr:
		if w.exprTaint(taint, e.X) != notTainted {
			return derived
		}
	case *ast.StarExpr:
		if w.exprTaint(taint, e.X) != notTainted {
			return derived
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND && w.exprTaint(taint, e.X) != notTainted {
			return derived
		}
	case *ast.TypeAssertExpr:
		return w.exprTaint(taint, e.X) // assertion preserves identity
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if w.exprTaint(taint, el) != notTainted {
				return derived
			}
		}
	case *ast.CallExpr:
		return w.callTaint(taint, e)
	}
	return notTainted
}

// callTaint computes the taint of a call result.
func (w *taintWalker) callTaint(taint map[types.Object]int, call *ast.CallExpr) int {
	info := w.pass.TypesInfo

	// Type conversion: identity-preserving for reference types.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return w.exprTaint(taint, call.Args[0])
		}
		return notTainted
	}

	// Builtins: append's result aliases its destination, not its added
	// elements (a deliberate shallow-copy approximation — appending
	// tainted elements into a fresh slice copies them out).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := info.ObjectOf(id).(*types.Builtin); isB {
			if b.Name() == "append" && len(call.Args) > 0 {
				return w.exprTaint(taint, call.Args[0])
			}
			return notTainted
		}
	}

	// (sync.Pool).Get: the taint source.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Get" {
		if named := kwutil.ReceiverType(info, call); kwutil.NamedIs(named, "sync", "Pool") {
			return root
		}
	}

	// Known callees: fresh wins, accessors hand out the root.
	if callee := staticCallee(info, call); callee != nil {
		if w.fresh[callee] || w.importedFresh(callee) {
			return notTainted
		}
		if w.pooled[callee] || w.importedPooled(callee) {
			return root
		}
	}

	// Unknown call with a tainted argument (or receiver): assume the
	// result may alias it.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if w.exprTaint(taint, sel.X) != notTainted {
			return derived
		}
	}
	for _, arg := range call.Args {
		if w.exprTaint(taint, arg) != notTainted {
			return derived
		}
	}
	return notTainted
}

func (w *taintWalker) importedFresh(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg() == w.pass.Pkg {
		return false
	}
	var f freshFact
	return w.pass.ImportObjectFact(fn, &f)
}

func (w *taintWalker) importedPooled(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg() == w.pass.Pkg {
		return false
	}
	var f pooledFact
	return w.pass.ImportObjectFact(fn, &f)
}

func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
