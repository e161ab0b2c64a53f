package contextrank

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExempt lists the product functions that may have no caller
// outside _test.go files, by types.Func.FullName, each with its reason.
var testOnlyExempt = map[string]string{
	"contextrank/internal/relevance.NewStore": "the fixture through which tests in six packages build a store with known keywords; no product path builds one by hand",
}

// TestEveryProductFuncHasProductCaller holds the north star's "reference
// implementations live in _test.go": every function and method declared in
// a non-test file of the root package, internal/ (less internal/analysis)
// or cmd/ (less cmd/kwlint) is used from a non-test file of this module,
// examples/ or the bench/ module, outside its own body. A method that
// implements a method of an interface in the loaded program is exempt, as
// it may be called through the interface; a generic function's uses count
// through its instantiations.
func TestEveryProductFuncHasProductCaller(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := loadProgram(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[*types.Func]bool)
	for _, p := range prog.src {
		for _, f := range p.files {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}
	ifaces := prog.interfaces()
	var bad []string
	seen := make(map[string]bool)
	for _, p := range prog.src {
		if !inCheckScope(p.path) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				name := fn.FullName()
				if fd.Recv == nil && (fn.Name() == "init" || fn.Name() == "main" && p.types.Name() == "main") {
					continue
				}
				if _, ok := testOnlyExempt[name]; ok {
					seen[name] = true
					if used[fn] {
						t.Errorf("%s is exempt as test-only but has a product caller: drop the exemption", name)
					}
					continue
				}
				if used[fn] || implementsInterface(fn, ifaces) {
					continue
				}
				pos := prog.fset.Position(fd.Name.Pos())
				if rel, err := filepath.Rel(root, pos.Filename); err == nil {
					pos.Filename = rel
				}
				bad = append(bad, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, name))
			}
		}
	}
	for name := range testOnlyExempt {
		if !seen[name] {
			t.Errorf("exemption %s names no product function", name)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s has no use outside _test.go files: delete it or move it into a test file", b)
	}
}

// inCheckScope reports whether a package's functions must have a product
// caller: the root package, internal/ and cmd/, less the lint suite.
func inCheckScope(path string) bool {
	rel, ok := strings.CutPrefix(path, "contextrank")
	if !ok || strings.HasPrefix(rel, "/internal/analysis") || strings.HasPrefix(rel, "/cmd/kwlint") {
		return false
	}
	return rel == "" || strings.HasPrefix(rel, "/internal/") || strings.HasPrefix(rel, "/cmd/")
}

// implementsInterface reports whether fn is a method through which its
// receiver type, or a pointer to it, implements an interface that has a
// method of fn's name.
func implementsInterface(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(typ, it) || types.Implements(types.NewPointer(typ), it) {
			return true
		}
	}
	return false
}

// srcPkg is a package type-checked from its non-test files.
type srcPkg struct {
	path  string
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// program is the module's and bench/'s packages checked from source, with
// every other package imported from compiler export data.
type program struct {
	fset *token.FileSet
	src  map[string]*srcPkg
	dirs map[string]listedPkg
	gc   types.Importer
}

// listedPkg is the part of `go list -json`'s output the check reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Module     *struct{ Path string }
}

// loadProgram lists the packages of the modules rooted at dirs with
// `go list -deps`, checks each module package from source and reads the
// rest (the standard library, vendored x/tools) from export data.
func loadProgram(dirs ...string) (*program, error) {
	prog := &program{
		fset: token.NewFileSet(),
		src:  make(map[string]*srcPkg),
		dirs: make(map[string]listedPkg),
	}
	var roots, deps []string
	for _, dir := range dirs {
		out, err := goCmd(dir, "list", "-deps", "-json", "./...")
		if err != nil {
			return nil, err
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var lp listedPkg
			if err := dec.Decode(&lp); err != nil {
				return nil, err
			}
			if lp.Module != nil && strings.HasPrefix(lp.Module.Path, "contextrank") {
				if _, ok := prog.dirs[lp.ImportPath]; !ok {
					roots = append(roots, lp.ImportPath)
				}
				prog.dirs[lp.ImportPath] = lp
			} else {
				deps = append(deps, lp.ImportPath)
			}
		}
	}
	out, err := goCmd(".", append([]string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}, deps...)...)
	if err != nil {
		return nil, err
	}
	export := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "="); ok {
			export[path] = file
		}
	}
	prog.gc = importer.ForCompiler(prog.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	for _, path := range roots {
		if _, err := prog.Import(path); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// Import checks a module package from source, once, and imports any other
// from export data.
func (prog *program) Import(path string) (*types.Package, error) {
	if p, ok := prog.src[path]; ok {
		return p.types, nil
	}
	lp, ok := prog.dirs[path]
	if !ok {
		return prog.gc.Import(path)
	}
	p := &srcPkg{path: path, info: &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}}
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(prog.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: prog}
	pkg, err := conf.Check(path, prog.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = pkg
	prog.src[path] = p
	return pkg, nil
}

// interfaces indexes by method name every non-generic interface type of
// the program: those the checked packages spell, named or not, and those
// declared at package level in any package they reach.
func (prog *program) interfaces() map[string][]*types.Interface {
	byName := make(map[string][]*types.Interface)
	seen := make(map[*types.Interface]bool)
	add := func(typ types.Type) {
		if n, ok := typ.(*types.Named); ok && n.TypeParams().Len() > 0 && n.TypeArgs().Len() == 0 {
			return
		}
		it, ok := typ.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range prog.src {
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return byName
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}
