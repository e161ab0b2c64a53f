// Package hotpath implements the kwlint analyzer that enforces the
// allocation discipline of DESIGN.md §10 on functions annotated
// //kw:hotpath.
//
// The annotate/detect/eval paths budget their allocations per operation
// (BENCH.baseline.json pins the counts); a stray fmt.Sprintf or an
// append loop on a fresh nil slice silently multiplies them. The
// analyzer bans the constructs that create unbounded or per-call heap
// garbage inside a hot function and everything it statically calls:
//
//   - calls into fmt, and a denylist of other allocating stdlib calls
//     (strings.Join/Split/ToLower…, strconv formatting, regexp FindAll…)
//   - string ↔ []byte conversions (except as a map index, where the
//     compiler elides the copy: m[string(b)])
//   - heap composite literals: slice/map literals, &T{…}, new(T), and
//     make(map)/make(chan); make([]T, n, cap) is allowed — preallocation
//     is the prescribed idiom
//   - append growth on a slice declared empty without capacity
//   - closures that capture variables and escape the function
//   - interface boxing of non-pointer values at call boundaries
//     (pointers fit the interface word; values must be heap-copied)
//
// Calls to functions in the same module are checked transitively: each
// package exports a may-allocate summary fact for its functions, and a
// hot function calling anything whose summary says "may allocate" is a
// violation at the call site. Escape hatches are explicit and named:
// //kw:coldpath marks a callee as off the hot path (rare branches,
// failure paths), and a //kwlint:ignore hotpath — <why> comment accepts
// a documented allocation into the benchmark budget. sort.*/slices.*
// calls are exempt as a whole (one bounded closure allocation,
// documented in §10), as are panic arguments (the failure path may
// format freely).
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"

	"contextrank/internal/analysis/kwutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "enforce the //kw:hotpath allocation discipline\n\n" +
		"Functions annotated //kw:hotpath (and everything they statically call, via cross-package facts) must avoid fmt, string↔[]byte conversions, heap composite literals, un-preallocated append growth, escaping closures, and interface boxing. //kw:coldpath exempts a callee; //kwlint:ignore hotpath — <why> accepts a documented allocation.",
	Requires:  []*analysis.Analyzer{inspect.Analyzer},
	FactTypes: []analysis.Fact{(*funcFact)(nil)},
	Run:       run,
}

// funcFact is the exported per-function summary. Exempt means the
// function is itself under the hotpath contract (//kw:hotpath, checked
// at its own declaration) or declared off it (//kw:coldpath); MayAlloc
// carries the first reason found.
type funcFact struct {
	MayAlloc bool
	Exempt   bool
	Reason   string
}

func (*funcFact) AFact() {}
func (f *funcFact) String() string {
	return fmt.Sprintf("hotpath(mayAlloc=%v exempt=%v %s)", f.MayAlloc, f.Exempt, f.Reason)
}

// violation is one banned construct found in a function body.
type violation struct {
	pos token.Pos
	msg string
}

func run(pass *analysis.Pass) (interface{}, error) {
	sup := kwutil.NewSuppressor(pass, "hotpath")
	kwutil.ReportMalformed(pass, "hotpath", func(pos token.Pos, problem string) {
		pass.Reportf(pos, "%s", problem)
	})

	// Collect annotations and function declarations.
	var (
		decls  []*ast.FuncDecl
		fnOf   = map[*ast.FuncDecl]*types.Func{}
		hot    = map[*types.Func]bool{}
		exempt = map[*types.Func]bool{} // //kw:hotpath or //kw:coldpath
		docPos = map[token.Pos]bool{}   // comments attached to FuncDecl docs
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
			if kwutil.HasDirective(fd.Doc, "hotpath") {
				hot[fn] = true
				exempt[fn] = true
			}
			if kwutil.HasDirective(fd.Doc, "coldpath") {
				exempt[fn] = true
			}
		}
	}

	// A //kw:hotpath or //kw:coldpath anywhere but a function's doc
	// comment silently enforces nothing — that must be loud.
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, st, _ := kwutil.ParseDirective(c)
				if st != kwutil.DirectiveOK || (d.Verb != "hotpath" && d.Verb != "coldpath") {
					continue
				}
				if !docPos[c.Pos()] {
					pass.Reportf(c.Pos(), "misplaced //kw:%s: it only takes effect in the doc comment of a function declaration", d.Verb)
				}
			}
		}
	}

	c := &checker{pass: pass, exempt: exempt}

	// Per-function direct violations and local call edges.
	directVios := map[*types.Func][]violation{}
	localCalls := map[*types.Func][]callsite{}
	for _, fd := range decls {
		if fd.Body == nil {
			continue
		}
		fn := fnOf[fd]
		vios, calls := c.check(fd.Body)
		directVios[fn] = vios
		localCalls[fn] = calls
	}

	// Fixpoint: a function may allocate if it has a direct violation or
	// calls (locally) a non-exempt function that may allocate.
	mayAlloc := map[*types.Func]string{} // reason
	for fn, vios := range directVios {
		if len(vios) > 0 {
			mayAlloc[fn] = shortReason(pass, vios[0])
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, calls := range localCalls {
			if _, done := mayAlloc[fn]; done {
				continue
			}
			for _, cs := range calls {
				if cs.reason != "" { // cross-package or denylist, pre-resolved
					mayAlloc[fn] = cs.reason
					changed = true
					break
				}
				if exempt[cs.callee] {
					continue
				}
				if r, bad := mayAlloc[cs.callee]; bad {
					mayAlloc[fn] = "calls " + cs.callee.Name() + " (" + r + ")"
					changed = true
					break
				}
			}
		}
	}

	// Export summaries for importing packages.
	for _, fd := range decls {
		fn := fnOf[fd]
		f := &funcFact{Exempt: exempt[fn]}
		if r, bad := mayAlloc[fn]; bad {
			f.MayAlloc, f.Reason = true, r
		}
		if f.MayAlloc || f.Exempt {
			pass.ExportObjectFact(fn, f)
		}
	}

	// Report inside hot functions: every direct violation, and every call
	// site whose callee may allocate.
	for _, fd := range decls {
		fn := fnOf[fd]
		if !hot[fn] {
			continue
		}
		for _, v := range directVios[fn] {
			sup.Reportf(v.pos, "%s", v.msg)
		}
		for _, cs := range localCalls[fn] {
			if cs.reason != "" {
				sup.Reportf(cs.pos, "hot path calls %s, which may allocate (%s)", cs.name, cs.reason)
				continue
			}
			if exempt[cs.callee] {
				continue
			}
			if r, bad := mayAlloc[cs.callee]; bad {
				sup.Reportf(cs.pos, "hot path calls %s, which may allocate (%s)", cs.callee.Name(), r)
			}
		}
	}

	sup.Finish()
	return nil, nil
}

func shortReason(pass *analysis.Pass, v violation) string {
	msg := v.msg
	if i := strings.Index(msg, " on the hot path"); i > 0 {
		msg = msg[:i]
	}
	if len(msg) > 120 {
		msg = msg[:120] + "…"
	}
	return fmt.Sprintf("%s at %s", msg, pass.Fset.Position(v.pos))
}

// callsite is one statically-resolved call from a checked function.
// Same-package callees carry callee (resolved during the fixpoint);
// cross-package and denylisted callees arrive pre-resolved with a
// non-empty reason, or are dropped entirely when known clean.
type callsite struct {
	pos    token.Pos
	name   string
	callee *types.Func // same-package callee, nil otherwise
	reason string      // pre-resolved violation reason ("" for local/clean)
}

type checker struct {
	pass   *analysis.Pass
	exempt map[*types.Func]bool
}

// check walks one function body collecting direct violations and call
// edges. It is applied to every function in the package — summaries for
// plain functions, reports for hot ones.
func (c *checker) check(body *ast.BlockStmt) (vios []violation, calls []callsite) {
	info := c.pass.TypesInfo

	// Conversions used as map keys are exempt: collect them first.
	keyConv := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[ix.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				keyConv[ast.Unparen(ix.Index)] = true
			}
		}
		return true
	})

	// Fresh empty slices: local vars declared with no backing capacity.
	freshSlice := c.freshSlices(body)

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			return c.checkCall(n, keyConv, freshSlice, &vios, &calls, walk)
		case *ast.CompositeLit:
			if v, bad := c.compositeViolation(n, false); bad {
				vios = append(vios, v)
				return false
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					if v, bad := c.compositeViolation(cl, true); bad {
						vios = append(vios, v)
						return false
					}
				}
			}
		case *ast.FuncLit:
			// Reached outside an exempting context (checkCall intercepts
			// sort args): a capturing closure here escapes or is at least
			// unproven not to.
			if capt := c.captures(n); capt != "" {
				vios = append(vios, violation{pos: n.Pos(), msg: "closure capturing " + capt + " allocates on the hot path; hoist the state or use a method value"})
			}
			// Still check the body: it runs on the hot path.
			ast.Inspect(n.Body, walk)
			return false
		}
		return true
	}
	ast.Inspect(body, walk)
	return vios, calls
}

// checkCall handles every call form: builtins, conversions, sort/panic
// exemptions, boxing at the call boundary, denylists, and call-edge
// collection. Returns false when it has descended manually.
func (c *checker) checkCall(call *ast.CallExpr, keyConv map[ast.Expr]bool, freshSlice map[types.Object]*violation, vios *[]violation, calls *[]callsite, walk func(ast.Node) bool) bool {
	info := c.pass.TypesInfo

	// Type conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && !keyConv[call] {
			if v, bad := conversionViolation(info, call, tv.Type); bad {
				*vios = append(*vios, v)
			}
		}
		// Conversions to interface box their operand.
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface && len(call.Args) == 1 {
			if boxes(info, call.Args[0]) {
				*vios = append(*vios, violation{pos: call.Pos(), msg: "conversion to interface boxes a value on the hot path"})
			}
		}
		return true
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "panic":
				// The failure path may format freely.
				return false
			case "make":
				if v, bad := makeViolation(info, call); bad {
					*vios = append(*vios, v)
				}
			case "new":
				*vios = append(*vios, violation{pos: call.Pos(), msg: "new(T) allocates on the hot path"})
			case "append":
				if len(call.Args) > 0 {
					if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
						if v, fresh := freshSlice[info.ObjectOf(id)]; fresh {
							*vios = append(*vios, *v)
							delete(freshSlice, info.ObjectOf(id)) // one report per slice
						}
					}
				}
			}
			return true
		}
	}

	// sort.* / slices.* and project Sort helpers: the closure argument is
	// the documented single bounded allocation (§10); boxing through
	// sort.Interface is likewise accepted. Bodies still run hot.
	if kwutil.IsSortCall(info, call) {
		for _, arg := range call.Args {
			if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				ast.Inspect(fl.Body, walk)
			}
		}
		return false
	}

	// Resolve the callee; a call that is itself a violation (denylisted
	// or known-allocating via fact) is reported once, without piling a
	// boxing diagnostic onto its arguments.
	callee := calleeFunc(info, call)
	boxCheck := func() {
		if sig, ok := info.Types[call.Fun].Type.(*types.Signature); ok {
			c.checkBoxing(call, sig, vios)
		}
	}
	if callee == nil || callee.Pkg() == nil {
		boxCheck()
		return true // dynamic call (func value, interface method): unknowable
	}
	pos := call.Pos()
	if callee.Pkg() == c.pass.Pkg {
		boxCheck()
		*calls = append(*calls, callsite{pos: pos, name: callee.Name(), callee: callee})
		return true
	}
	// Cross-package: facts first (module-internal only), then the stdlib
	// denylist. Facts are trusted only inside the module tree: the stdlib
	// is governed by the explicit denylist instead, so a pessimistic
	// may-alloc summary of a runtime slow path (sync.Pool.Get pinning the
	// P, say) does not poison every pooled hot path.
	if sameModule(callee.Pkg(), c.pass.Pkg) {
		var fact funcFact
		if c.pass.ImportObjectFact(callee, &fact) {
			if fact.MayAlloc && !fact.Exempt {
				*calls = append(*calls, callsite{pos: pos, name: qualName(callee), reason: fact.Reason})
				return true
			}
			boxCheck()
			return true
		}
	}
	if reason := denylisted(info, call, callee); reason != "" {
		*calls = append(*calls, callsite{pos: pos, name: qualName(callee), reason: reason})
		return true
	}
	boxCheck()
	return true
}

// checkBoxing flags non-pointer concrete arguments passed to interface
// parameters: the value must be copied to the heap to fit the interface
// word. Pointer-shaped values (pointers, channels, maps, funcs, unsafe
// pointers) box without an allocation.
func (c *checker) checkBoxing(call *ast.CallExpr, sig *types.Signature, vios *[]violation) {
	info := c.pass.TypesInfo
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type() // slice passed whole
			} else if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		if boxes(info, arg) {
			*vios = append(*vios, violation{pos: arg.Pos(), msg: "interface boxing of a non-pointer value allocates on the hot path; pass a pointer or avoid the interface"})
		}
	}
}

// boxes reports whether passing expr to an interface heap-allocates: a
// concrete value that is not pointer-shaped and not a constant nil.
func boxes(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(expr)]
	if !ok || tv.IsNil() {
		return false
	}
	t := tv.Type
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.TypeParam:
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return false
	}
	// Constant small integers come from the runtime's static cache, and
	// zero-size values box for free; everything else copies to the heap.
	if tv.Value != nil {
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			return false
		}
	}
	return true
}

// conversionViolation flags string<->[]byte conversions.
func conversionViolation(info *types.Info, call *ast.CallExpr, target types.Type) (violation, bool) {
	src, ok := info.Types[call.Args[0]]
	if !ok {
		return violation{}, false
	}
	if isString(target) && isByteSlice(src.Type) {
		return violation{pos: call.Pos(), msg: "string([]byte) conversion copies on the hot path; keep bytes as bytes or intern"}, true
	}
	if isByteSlice(target) && isString(src.Type) {
		return violation{pos: call.Pos(), msg: "[]byte(string) conversion copies on the hot path; keep the string or reuse a scratch buffer"}, true
	}
	return violation{}, false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// compositeViolation flags heap composite literals: slice and map
// literals always allocate backing storage; &T{...} allocates T on the
// heap. Plain struct/array value literals live in registers or on the
// stack and pass.
func (c *checker) compositeViolation(cl *ast.CompositeLit, addressed bool) (violation, bool) {
	tv, ok := c.pass.TypesInfo.Types[cl]
	if !ok {
		return violation{}, false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		if len(cl.Elts) == 0 {
			// x := []T{} is handled (better) by the fresh-slice append
			// check; an empty literal alone allocates nothing observable.
			return violation{}, false
		}
		return violation{pos: cl.Pos(), msg: "slice literal allocates on the hot path; preallocate the backing array outside the loop or reuse scratch"}, true
	case *types.Map:
		return violation{pos: cl.Pos(), msg: "map literal allocates on the hot path; hoist it to a package var or pooled scratch"}, true
	}
	if addressed {
		return violation{pos: cl.Pos(), msg: "&composite literal escapes to the heap on the hot path; use a value or pooled scratch"}, true
	}
	return violation{}, false
}

// makeViolation flags make(map)/make(chan); make([]T, n[, cap]) is the
// prescribed preallocation idiom and passes.
func makeViolation(info *types.Info, call *ast.CallExpr) (violation, bool) {
	if len(call.Args) == 0 {
		return violation{}, false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok {
		return violation{}, false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		return violation{pos: call.Pos(), msg: "make(map) allocates on the hot path; hoist it or carry it in pooled scratch"}, true
	case *types.Chan:
		return violation{pos: call.Pos(), msg: "make(chan) allocates on the hot path"}, true
	}
	return violation{}, false
}

// freshSlices finds local slice variables declared with no backing
// capacity — var s []T, s := []T{}, s := make([]T, 0) — which make any
// later append a reallocation cascade. The violation is prepared at the
// declaration (the right place to preallocate) and reported only if an
// append on the variable is actually seen.
func (c *checker) freshSlices(body *ast.BlockStmt) map[types.Object]*violation {
	info := c.pass.TypesInfo
	fresh := map[types.Object]*violation{}
	record := func(name *ast.Ident, at ast.Node) {
		obj := info.ObjectOf(name)
		if obj == nil {
			return
		}
		if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
			return
		}
		fresh[obj] = &violation{
			pos: at.Pos(),
			msg: fmt.Sprintf("append growth on %s, declared without capacity, reallocates on the hot path; preallocate with make(%s, 0, n)", name.Name, types.TypeString(obj.Type(), types.RelativeTo(c.pass.Pkg))),
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					record(name, vs)
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				name, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				rhs := ast.Unparen(n.Rhs[i])
				switch r := rhs.(type) {
				case *ast.CompositeLit:
					if len(r.Elts) == 0 {
						if _, isSlice := info.Types[r].Type.Underlying().(*types.Slice); isSlice {
							record(name, n)
						}
					}
				case *ast.CallExpr:
					if id, ok := ast.Unparen(r.Fun).(*ast.Ident); ok {
						if b, isB := info.ObjectOf(id).(*types.Builtin); isB && b.Name() == "make" && len(r.Args) == 2 {
							if tv, ok := info.Types[r.Args[1]]; ok && tv.Value != nil && tv.Value.String() == "0" {
								record(name, n)
							}
						}
					}
				}
			}
		}
		return true
	})
	return fresh
}

// captures names a variable the closure captures from its enclosing
// function, or "" if it captures nothing (a static closure, which does
// not allocate).
func (c *checker) captures(fl *ast.FuncLit) string {
	info := c.pass.TypesInfo
	name := ""
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return true
		}
		// Captured: declared outside the literal but not package-level.
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package-level var
		}
		if v.Pos() < fl.Pos() || v.Pos() > fl.End() {
			name = v.Name()
			return false
		}
		return true
	})
	return name
}

// calleeFunc resolves a call to its static *types.Func (package function
// or method), or nil for dynamic calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				return nil // dynamic dispatch: unknowable
			}
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func qualName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

// allocFuncs is the stdlib denylist: package-level functions whose whole
// point is producing new heap objects. "*" denylists a package entirely.
var allocFuncs = map[string]map[string]bool{
	"fmt":    {"*": true},
	"errors": {"New": true},
	"strings": {
		"Join": true, "Split": true, "SplitN": true, "SplitAfter": true,
		"Fields": true, "FieldsFunc": true, "Repeat": true,
		"Replace": true, "ReplaceAll": true, "ToLower": true, "ToUpper": true,
		"ToTitle": true, "Map": true, "Clone": true, "Concat": true,
	},
	"strconv": {
		"Itoa": true, "FormatInt": true, "FormatUint": true,
		"FormatFloat": true, "Quote": true, "QuoteToASCII": true,
	},
	"regexp": {"Compile": true, "MustCompile": true, "CompilePOSIX": true},
	"bytes": {
		"NewBuffer": true, "NewBufferString": true, "NewReader": true,
		"Join": true, "Split": true, "SplitN": true, "Fields": true,
		"Repeat": true, "ToLower": true, "ToUpper": true, "Clone": true,
	},
}

// allocMethods denylists methods by receiver type: the regexp FindAll
// family returns freshly-built slices every call.
var allocMethods = map[string]func(name string) bool{
	"regexp.Regexp": func(name string) bool {
		return strings.HasPrefix(name, "FindAll") || strings.HasPrefix(name, "ReplaceAll") || name == "Split"
	},
	"strings.Builder": func(name string) bool { return name == "String" },
	"time.Time":       func(name string) bool { return name == "Format" || name == "String" },
}

// sameModule reports whether two packages live in the same top-level
// module tree, compared by first import-path segment. This is the fact
// trust boundary: within the module, may-alloc summaries propagate;
// outside it, only the denylist speaks.
func sameModule(a, b *types.Package) bool {
	pa, pb := a.Path(), b.Path()
	if i := strings.IndexByte(pa, '/'); i >= 0 {
		pa = pa[:i]
	}
	if i := strings.IndexByte(pb, '/'); i >= 0 {
		pb = pb[:i]
	}
	return pa == pb
}

// denylisted returns a reason when the cross-package callee is a known
// allocator, "" otherwise (unknown stdlib calls are assumed clean — the
// denylist is the explicit, reviewable model boundary).
func denylisted(info *types.Info, call *ast.CallExpr, callee *types.Func) string {
	pkg := callee.Pkg().Path()
	if names, ok := allocFuncs[pkg]; ok {
		if names["*"] || names[callee.Name()] {
			return "allocating stdlib call"
		}
	}
	if named := kwutil.ReceiverType(info, call); named != nil {
		if obj := named.Obj(); obj != nil && obj.Pkg() != nil {
			if match, ok := allocMethods[obj.Pkg().Path()+"."+obj.Name()]; ok && match(callee.Name()) {
				return "allocating stdlib call"
			}
		}
	}
	return ""
}
