// Package kwutil holds helpers shared by the kwlint analyzers: package
// scoping, test-file detection, and small go/types lookups.
//
// Every kwlint analyzer is scoped — it only fires inside the packages
// that carry the contract it enforces (the deterministic pipeline, the
// ranking/eval code, the serve layer). Scopes are expressed as
// slash-separated import-path suffixes ("internal/world") so they match
// both the real module path ("contextrank/internal/world") and the bare
// fixture paths used by analysistest-style harnesses ("internal/world").
package kwutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Scope is a set of import-path suffixes. The zero value matches nothing.
type Scope struct {
	suffixes []string
}

// NewScope parses a comma-separated suffix list, e.g.
// "internal/world,internal/querylog".
func NewScope(csv string) *Scope {
	s := &Scope{}
	for _, part := range strings.Split(csv, ",") {
		part = strings.Trim(strings.TrimSpace(part), "/")
		if part != "" {
			s.suffixes = append(s.suffixes, part)
		}
	}
	return s
}

// InScope reports whether the package under analysis is inside the
// scope: its import path equals a suffix or ends in "/"+suffix.
func (s *Scope) InScope(pass *analysis.Pass) bool {
	path := pass.Pkg.Path()
	for _, suf := range s.suffixes {
		if path == suf || strings.HasSuffix(path, "/"+suf) {
			return true
		}
	}
	return false
}

// IsTestFile reports whether pos sits in a _test.go file. The kwlint
// contracts govern production code; tests may freeze time, hard-code
// seeds, and compare floats exactly.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	f := fset.File(pos)
	return f == nil || strings.HasSuffix(f.Name(), "_test.go")
}

// PkgFunc resolves a call or bare reference to a package-level function
// and returns its package path and name ("math/rand", "Intn"). The empty
// strings are returned for anything else (methods, locals, builtins).
func PkgFunc(info *types.Info, expr ast.Expr) (pkgPath, name string) {
	var obj types.Object
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	case *ast.Ident:
		obj = info.Uses[e]
	default:
		return "", ""
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// ReceiverType returns the named type (after pointer indirection) of a
// method call's receiver, or nil.
func ReceiverType(info *types.Info, call *ast.CallExpr) *types.Named {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// NamedIs reports whether named is exactly pkgPath.name.
func NamedIs(named *types.Named, pkgPath, name string) bool {
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// IdentObjects collects the objects of every identifier in expr, except
// under len/cap — returning a slice's length does not leak its order.
func IdentObjects(info *types.Info, expr ast.Expr) []types.Object {
	var objs []types.Object
	ast.Inspect(expr, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fun, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, isBuiltin := info.ObjectOf(fun).(*types.Builtin); isBuiltin && (b.Name() == "len" || b.Name() == "cap") {
					return false
				}
			}
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				objs = append(objs, obj)
			}
		}
		return true
	})
	return objs
}

// IsSortCall recognizes anything that imposes an order on its argument:
// sort.* and slices.* calls (including sort.Sort(wrapper(s))), plus
// project-local sort helpers by naming convention — a function whose name
// contains "Sort" (corpus.SortVector, sortByScore, …).
func IsSortCall(info *types.Info, call *ast.CallExpr) bool {
	pkg, name := PkgFunc(info, call.Fun)
	if pkg == "sort" || pkg == "slices" {
		return true
	}
	if name == "" {
		// Local helpers and methods: fall back to the syntactic name.
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
	}
	return strings.Contains(name, "Sort") || strings.HasPrefix(name, "sort")
}

// ContainsTimeNow reports whether the expression tree contains a call to
// time.Now (directly or under conversions/arithmetic, e.g.
// time.Now().UnixNano()).
func ContainsTimeNow(info *types.Info, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if pkg, name := PkgFunc(info, call.Fun); pkg == "time" && name == "Now" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
