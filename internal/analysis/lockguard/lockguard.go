// Package lockguard implements the kwlint analyzer that answers, for every
// annotated field, "who may touch this": it enforces two field contracts
// with one walker.
//
//   - A struct field carrying
//
//     //kw:guardedby(mu)
//
//     (in its doc or trailing comment, with mu a sibling field of a sync
//     mutex type) may only be accessed in functions that visibly take that
//     mutex on the same object.
//
//   - A type carrying
//
//     //kw:frozen-after(Method)
//
//     is immutable once Method has run, so the only code allowed to write
//     its fields is Method itself and methods annotated //kw:builder (the
//     build-phase API whose documented contract is "call before Method").
//     A write is an assignment, an increment, or a delete/clear through any
//     selector chain rooted in the frozen type.
//
// The check is deliberately flow-insensitive and intra-procedural
// (DESIGN.md §7's concurrency contracts are structural, not temporal):
// an access to x.field is legal if, anywhere in the same function,
// x.mu.Lock() or x.mu.RLock() is called with the same root variable —
// ordering and unlock pairing are the race detector's job; the analyzer
// catches the access paths that never touch the mutex at all. Two
// structural escape hatches match how the repo builds these structs:
//
//   - constructor escape (both contracts): accesses and writes rooted at a
//     variable the function itself constructed (composite literal or new)
//     are free — the object is not yet shared;
//   - //kw:holds(mu) on a function declares "my caller holds mu", for
//     internal helpers called under the lock.
//
// Both annotations are exported as facts (guards on the field objects,
// freeze methods on the type names), so importing packages are held to
// the same contracts; they can never be builders, since Go methods live
// with their type.
package lockguard

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"contextrank/internal/analysis/kwutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockguard",
	Doc: "enforce //kw:guardedby(mu) and //kw:frozen-after(Method) field contracts\n\n" +
		"A field annotated //kw:guardedby(mu) may only be accessed in functions that call <root>.mu.Lock/RLock on the same root object, construct the object locally, or declare //kw:holds(mu). " +
		"Fields of a type annotated //kw:frozen-after(Freeze) may only be written inside Freeze itself, methods annotated //kw:builder, or functions that construct the value locally.",
	FactTypes: []analysis.Fact{(*guardedFact)(nil), (*frozenFact)(nil)},
	Run:       run,
}

// guardedFact records, on a field object, the name of the sibling mutex
// field that guards it.
type guardedFact struct {
	Mutex string
}

func (*guardedFact) AFact()           {}
func (f *guardedFact) String() string { return "guardedby(" + f.Mutex + ")" }

// frozenFact records the freeze-method name on the annotated type.
type frozenFact struct {
	Method string
}

func (*frozenFact) AFact()           {}
func (f *frozenFact) String() string { return "frozen-after(" + f.Method + ")" }

// takesEffectOn names, per verb, the only place its directive binds; the
// same verb anywhere else is a dead annotation and is reported.
var takesEffectOn = map[string]string{
	"guardedby":    "a struct field",
	"holds":        "a function declaration",
	"frozen-after": "a type declaration",
	"builder":      "a method declaration",
}

// contracts is one package's view of the annotations: its own, plus the
// facts of the packages it imports.
type contracts struct {
	pass    *analysis.Pass
	sup     *kwutil.Suppressor
	guarded map[*types.Var]string      // field -> sibling mutex name
	frozen  map[*types.TypeName]string // type -> freeze method
}

func run(pass *analysis.Pass) (interface{}, error) {
	c := &contracts{
		pass:    pass,
		sup:     kwutil.NewSuppressor(pass, "lockguard"),
		guarded: map[*types.Var]string{},
		frozen:  map[*types.TypeName]string{},
	}
	kwutil.ReportMalformed(pass, "lockguard", func(pos token.Pos, problem string) {
		pass.Reportf(pos, "%s", problem)
	})
	validPos := map[token.Pos]bool{} // comment positions where a verb binds

	// Collect //kw:guardedby from struct fields and //kw:frozen-after from
	// type declarations. The latter may sit on the TypeSpec or, for a
	// single-spec GenDecl, on the decl.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				c.collectGuards(st, validPos)
			}
			return true
		})
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
				c.collectFrozen(gd, validPos)
			}
		}
	}

	// //kw:holds and //kw:builder bind to function declarations; builders
	// must be methods of frozen types.
	holds := map[*ast.FuncDecl]map[string]bool{}
	builders := map[*types.Func]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			for _, d := range kwutil.DocDirectives(fd.Doc, "holds") {
				validPos[d.Pos] = true
				if holds[fd] == nil {
					holds[fd] = map[string]bool{}
				}
				holds[fd][d.Arg] = true
			}
			ds := kwutil.DocDirectives(fd.Doc, "builder")
			for _, d := range ds {
				validPos[d.Pos] = true
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if len(ds) == 0 || fn == nil {
				continue
			}
			if recv := receiverTypeName(fn); recv == nil {
				pass.Reportf(ds[0].Pos, "//kw:builder on a non-method: only methods of a //kw:frozen-after type can be builders")
			} else if _, isFrozen := c.frozen[recv]; !isFrozen {
				pass.Reportf(ds[0].Pos, "//kw:builder on a method of %s, which has no //kw:frozen-after annotation", recv.Name())
			} else {
				builders[fn] = true
			}
		}
	}

	// Anything else carrying these verbs is silently dead: report it.
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				d, st, _ := kwutil.ParseDirective(cm)
				if where, ours := takesEffectOn[d.Verb]; st == kwutil.DirectiveOK && ours && !validPos[cm.Pos()] {
					pass.Reportf(cm.Pos(), "misplaced //kw:%s: it only takes effect on %s", d.Verb, where)
				}
			}
		}
	}

	// Check every function body. Builders and the freeze method itself
	// are the mutation contexts of their frozen type.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			mayWrite := builders[fn]
			if fn != nil {
				if recv := receiverTypeName(fn); recv != nil && c.frozen[recv] == fn.Name() {
					mayWrite = true
				}
			}
			c.checkFunc(fd, holds[fd], mayWrite)
		}
	}

	c.sup.Finish()
	return nil, nil
}

// collectGuards records the //kw:guardedby fields of one struct type.
func (c *contracts) collectGuards(st *ast.StructType, validPos map[token.Pos]bool) {
	info := c.pass.TypesInfo
	fieldNames := map[string]*types.Var{}
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				fieldNames[name.Name] = v
			}
		}
	}
	for _, field := range st.Fields.List {
		for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
			for _, d := range kwutil.DocDirectives(cg, "guardedby") {
				validPos[d.Pos] = true
				mu, ok := fieldNames[d.Arg]
				if !ok {
					c.pass.Reportf(d.Pos, "//kw:guardedby(%s): no sibling field named %s in this struct", d.Arg, d.Arg)
					continue
				}
				if !isMutex(mu.Type()) {
					c.pass.Reportf(d.Pos, "//kw:guardedby(%s): sibling field %s is not a sync.Mutex or sync.RWMutex", d.Arg, d.Arg)
					continue
				}
				for _, name := range field.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						c.guarded[v] = d.Arg
						c.pass.ExportObjectFact(v, &guardedFact{Mutex: d.Arg})
					}
				}
			}
		}
	}
}

// collectFrozen records the //kw:frozen-after types of one type
// declaration.
func (c *contracts) collectFrozen(gd *ast.GenDecl, validPos map[token.Pos]bool) {
	for _, spec := range gd.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		docs := []*ast.CommentGroup{ts.Doc, ts.Comment}
		if len(gd.Specs) == 1 {
			docs = append(docs, gd.Doc)
		}
		for _, cg := range docs {
			for _, d := range kwutil.DocDirectives(cg, "frozen-after") {
				validPos[d.Pos] = true
				tn, _ := c.pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if tn == nil {
					continue
				}
				if !hasMethod(tn, d.Arg) {
					c.pass.Reportf(d.Pos, "//kw:frozen-after(%s): type %s has no method %s", d.Arg, ts.Name.Name, d.Arg)
					continue
				}
				c.frozen[tn] = d.Arg
				c.pass.ExportObjectFact(tn, &frozenFact{Method: d.Arg})
			}
		}
	}
}

// guardOf resolves a field object to its guard, local or imported. A
// field reached through a generic type's instantiation is its origin's.
func (c *contracts) guardOf(v *types.Var) (string, bool) {
	v = v.Origin()
	if mu, ok := c.guarded[v]; ok {
		return mu, true
	}
	var f guardedFact
	if v.Pkg() != nil && v.Pkg() != c.pass.Pkg && c.pass.ImportObjectFact(v, &f) {
		return f.Mutex, true
	}
	return "", false
}

// freezeOf resolves a named type to its freeze method, local or imported.
func (c *contracts) freezeOf(tn *types.TypeName) (string, bool) {
	if m, ok := c.frozen[tn]; ok {
		return m, true
	}
	var f frozenFact
	if tn.Pkg() != nil && tn.Pkg() != c.pass.Pkg && c.pass.ImportObjectFact(tn, &f) {
		return f.Method, true
	}
	return "", false
}

// checkFunc verifies guarded-field accesses in one function and, unless
// mayWrite, that it writes no frozen type's fields.
func (c *contracts) checkFunc(fd *ast.FuncDecl, held map[string]bool, mayWrite bool) {
	info := c.pass.TypesInfo

	type lockKey struct {
		root types.Object
		mu   string
	}
	locked := map[lockKey]bool{}
	constructed := map[types.Object]bool{}

	// Pass 1: collect lock calls and locally-constructed roots anywhere
	// in the function (flow-insensitive by design).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// <base>.<mu>.Lock() / RLock(). A bare mutex variable is never
			// the guard: a guard is a sibling field, reached through a root.
			outer, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok || (outer.Sel.Name != "Lock" && outer.Sel.Name != "RLock") || !isMutexExpr(info, outer.X) {
				return true
			}
			if mu, ok := ast.Unparen(outer.X).(*ast.SelectorExpr); ok {
				if r := rootObject(info, mu.X); r != nil {
					locked[lockKey{r, mu.Sel.Name}] = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if !isConstruction(info, rhs) {
					continue
				}
				if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil {
						constructed[obj] = true
					}
				}
			}
		}
		return true
	})

	write := func(target ast.Expr) {
		if mayWrite {
			return
		}
		tn, method := c.frozenPrefix(target)
		if tn == nil {
			return
		}
		if root := rootObject(info, target); root != nil && constructed[root] {
			return
		}
		c.sup.Reportf(target.Pos(), "write to %s, frozen after %s(); mutate only in %s or a //kw:builder method", tn.Name(), method, method)
	}

	// Pass 2: check guarded accesses and frozen writes.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			v, ok := info.Uses[n.Sel].(*types.Var)
			if !ok || !v.IsField() {
				return true
			}
			mu, isGuarded := c.guardOf(v)
			if !isGuarded || held[mu] {
				return true
			}
			root := rootObject(info, n.X)
			if (root != nil && constructed[root]) || locked[lockKey{root, mu}] {
				return true
			}
			c.sup.Reportf(n.Sel.Pos(), "access to %s, guarded by %s, without %s.%s.Lock/RLock in this function; lock it, construct locally, or annotate //kw:holds(%s)", v.Name(), mu, exprString(n.X), mu, mu)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(lhs)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.CallExpr:
			// delete(frozen.m, k) and clear(frozen.s) mutate too.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
				if b, isB := info.ObjectOf(id).(*types.Builtin); isB && (b.Name() == "delete" || b.Name() == "clear") {
					write(n.Args[0])
				}
			}
		}
		return true
	})
}

// frozenPrefix walks the selector/index chain of a write target and
// returns the first frozen type it is rooted in, with its freeze method.
func (c *contracts) frozenPrefix(e ast.Expr) (*types.TypeName, string) {
	for {
		var base ast.Expr
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			base = x.X
		case *ast.IndexExpr:
			base = x.X
		case *ast.StarExpr:
			e = x.X
			continue
		default:
			return nil, ""
		}
		if tv, ok := c.pass.TypesInfo.Types[ast.Unparen(base)]; ok && tv.Type != nil {
			if named, ok := derefNamed(tv.Type); ok {
				if m, ok := c.freezeOf(named.Obj()); ok {
					return named.Obj(), m
				}
			}
		}
		e = base
	}
}

// derefNamed returns t, or the element of pointer t, as a named type.
func derefNamed(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

// receiverTypeName returns the named type of a method's receiver, or nil
// for plain functions.
func receiverTypeName(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	if named, ok := derefNamed(sig.Recv().Type()); ok {
		return named.Obj()
	}
	return nil
}

// hasMethod reports whether the named type declares a method with the
// given name (value or pointer receiver).
func hasMethod(tn *types.TypeName, name string) bool {
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// isMutex reports whether t (possibly behind a pointer) is sync.Mutex or
// sync.RWMutex.
func isMutex(t types.Type) bool {
	named, ok := derefNamed(t)
	return ok && (kwutil.NamedIs(named, "sync", "Mutex") || kwutil.NamedIs(named, "sync", "RWMutex"))
}

func isMutexExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	return ok && tv.Type != nil && isMutex(tv.Type)
}

// rootObject unwinds selectors, indexing, dereferences, and address-of
// down to the base identifier's object ("s" in &s.shards[i].mu), or nil
// when the base is not a simple variable.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// isConstruction recognizes expressions that produce a not-yet-shared
// object: composite literals (optionally addressed) and new(T).
func isConstruction(info *types.Info, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, isLit := ast.Unparen(x.X).(*ast.CompositeLit)
			return isLit
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, isB := info.ObjectOf(id).(*types.Builtin); isB && b.Name() == "new" {
				return true
			}
		}
	}
	return false
}

// exprString renders a short path for diagnostics.
func exprString(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[…]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.UnaryExpr:
		return exprString(x.X)
	}
	return "x"
}
