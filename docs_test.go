package contextrank

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	// testFunc matches a top-level test, fuzz or benchmark func in a
	// _test.go file and captures its name.
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	// docTestName matches a test-shaped name in a doc's code and captures
	// it and an optional trailing "*".
	docTestName = regexp.MustCompile(`(?:^|\W)((?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*)(\*?)`)
	// inlineCode matches one inline code span on a line.
	inlineCode = regexp.MustCompile("`[^`]+`")
	// docFlag matches a backticked -flag and captures its name.
	docFlag = regexp.MustCompile("`-([a-z0-9-]+)`")
	// spanFlag matches an inline code span that starts with a -flag, alone
	// or followed by a value, and captures the flag's name.
	spanFlag = regexp.MustCompile("`-([a-z0-9-]+)(?: [^`]*)?`")
)

// TestDocsNameRealThings holds the docs to the test suite: every
// backticked Test…, Fuzz… or Benchmark… name in DESIGN.md, README.md and
// EXPERIMENTS.md, in an inline code span or a fenced block, names a func in
// some _test.go of this module, and a name followed by "*" is the prefix
// of one.
func TestDocsNameRealThings(t *testing.T) {
	defined := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch name := d.Name(); {
			case path == ".":
			case name == "vendor" || name == "testdata" || strings.HasPrefix(name, "."):
				return filepath.SkipDir
			case path == "bench": // a module of its own
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(name string, prefix bool) bool {
		if !prefix {
			return defined[name]
		}
		for d := range defined {
			if strings.HasPrefix(d, name) {
				return true
			}
		}
		return false
	}

	checked := 0
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			code := []string{line}
			if !fenced {
				code = inlineCode.FindAllString(line, -1)
			}
			for _, c := range code {
				for _, m := range docTestName.FindAllStringSubmatch(c, -1) {
					checked++
					if !exists(m[1], m[2] == "*") {
						t.Errorf("%s:%d: `%s%s` names no test, fuzz target or benchmark in the module", doc, i+1, m[1], m[2])
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no test names found in the docs; the scan is broken")
	}
}

// TestReadmeRouterFlagTable holds README's router flag table to
// cmd/router's flag definitions both ways: every flag a row names is
// defined, every defined flag has a row, and a stated default is the
// flag's default. A cell of several flags ("-a / -b", a comma list) states
// their defaults in the same order; a "—" or "off" default is not compared.
func TestReadmeRouterFlagTable(t *testing.T) {
	kinds, defaults := binFlags(t, "router")
	if len(kinds) == 0 {
		t.Fatal("found no flag definitions in cmd/router; the scan is broken")
	}
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(src), "\nRouter flags:\n\n")
	if !ok {
		t.Fatal(`README.md has no "Router flags:" table`)
	}
	rows := 0
	for i, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		if i < 2 { // header and separator
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		var names []string
		for _, m := range docFlag.FindAllStringSubmatch(cells[0], -1) {
			names = append(names, m[1])
		}
		if len(names) == 0 {
			t.Errorf("README router flag row names no flag: %s", line)
		}
		def := strings.TrimSpace(cells[1])
		compare := !strings.HasPrefix(def, "—") && def != "off"
		stated := strings.FieldsFunc(def, func(r rune) bool { return r == '/' || r == ',' })
		if compare && len(stated) != len(names) {
			t.Errorf("README router flag row states %d defaults for %d flags: %s", len(stated), len(names), line)
			compare = false
		}
		for j, name := range names {
			rows++
			kind, ok := kinds[name]
			if !ok {
				t.Errorf("README names router flag -%s, which cmd/router does not define", name)
				continue
			}
			delete(kinds, name)
			if !compare {
				continue
			}
			fs := flag.NewFlagSet("readme", flag.ContinueOnError)
			defineFlag(fs, kind, name)
			if err := fs.Set(name, strings.TrimSpace(stated[j])); err != nil {
				t.Errorf("README's default for -%s: %v", name, err)
			} else if got := fs.Lookup(name).Value.String(); got != defaults[name] {
				t.Errorf("README gives -%s the default %s; cmd/router's is %s", name, got, defaults[name])
			}
		}
	}
	for name := range kinds {
		t.Errorf("cmd/router defines -%s, which README's router flag table has no row for", name)
	}
	if rows == 0 {
		t.Fatal("README's router flag table has no rows; the scan is broken")
	}
}

// binFlags reads cmd/<bin>'s flag definitions — the
// x.Kind("name", default, usage) calls of its non-test files, x the flag
// package or a *flag.FlagSet — into each flag's kind and its default as
// the flag package prints it. A default is a literal or a literal times a
// time unit. x.Var(value, "name", usage) is kind "Var", with no default.
func binFlags(t *testing.T, bin string) (kinds, defaults map[string]string) {
	dir := filepath.Join("cmd", bin)
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	kinds, defaults = make(map[string]string), make(map[string]string)
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 3 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if _, ok := sel.X.(*ast.Ident); !ok {
				return true
			}
			kind := sel.Sel.Name
			if kind == "Var" {
				if name, ok := literal(call.Args[1]); ok {
					kinds[name] = kind
				}
				return true
			}
			fs := flag.NewFlagSet(bin, flag.ContinueOnError)
			name, nameOK := literal(call.Args[0])
			if !defineFlag(fs, kind, name) {
				return true // not a flag definition
			}
			def, defOK := literal(call.Args[1])
			if !nameOK || !defOK {
				t.Fatalf("%s: cannot read the flag definition %s(%s, ...)", dir, kind, name)
			}
			if err := fs.Set(name, def); err != nil {
				t.Fatalf("%s: default of -%s: %v", dir, name, err)
			}
			kinds[name], defaults[name] = kind, fs.Lookup(name).Value.String()
			return true
		})
	}
	return kinds, defaults
}

// TestReadmeSectionFlags holds README's sections about a binary to its
// flags: every flag "Serving in production" names — a backticked `-flag`,
// or a -flag on a command line that runs ./cmd/serve — is one cmd/serve
// defines, and so for "Live ingestion" and cmd/ingest. Every cmd/<bin>'s
// definitions must read.
func TestReadmeSectionFlags(t *testing.T) {
	bins, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bins {
		binFlags(t, b.Name())
	}
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range []struct{ heading, bin string }{
		{"## Serving in production", "serve"},
		{"## Live ingestion", "ingest"},
	} {
		kinds, _ := binFlags(t, sec.bin)
		_, body, ok := strings.Cut(string(src), "\n"+sec.heading)
		if !ok {
			t.Fatalf("README.md has no %q section", sec.heading)
		}
		if end := strings.Index(body, "\n## "); end >= 0 {
			body = body[:end]
		}
		named, running := 0, false
		for _, line := range strings.Split(body, "\n") {
			var names []string
			for _, m := range spanFlag.FindAllStringSubmatch(line, -1) {
				names = append(names, m[1])
			}
			_, args, runs := strings.Cut(line, "./cmd/"+sec.bin+" ")
			if running && !runs {
				args, runs = line, true
			}
			if runs {
				for _, a := range strings.Fields(args) {
					if name, ok := strings.CutPrefix(a, "-"); ok && name != "" {
						names = append(names, name)
					}
				}
			}
			running = runs && strings.HasSuffix(strings.TrimSpace(line), "\\")
			for _, name := range names {
				named++
				if _, ok := kinds[name]; !ok {
					t.Errorf("README's %q names -%s, which cmd/%s does not define", sec.heading, name, sec.bin)
				}
			}
		}
		if named == 0 {
			t.Errorf("README's %q names no flag of cmd/%s; the scan is broken", sec.heading, sec.bin)
		}
	}
}

// literal spells a flag definition's argument as flag.Value.Set takes it:
// a basic literal, true or false, or a literal times time.Millisecond,
// Second or Minute.
func literal(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name, e.Name == "true" || e.Name == "false"
	case *ast.BasicLit:
		if e.Kind != token.STRING {
			return e.Value, true
		}
		s, err := strconv.Unquote(e.Value)
		return s, err == nil
	case *ast.BinaryExpr:
		n, isLit := e.X.(*ast.BasicLit)
		unit, isSel := e.Y.(*ast.SelectorExpr)
		suffix := map[string]string{"Millisecond": "ms", "Second": "s", "Minute": "m"}
		if isLit && isSel && e.Op == token.MUL && suffix[unit.Sel.Name] != "" {
			return n.Value + suffix[unit.Sel.Name], true
		}
	}
	return "", false
}

// defineFlag defines name on fs as a flag of the flag package's kind
// ("Int", "Duration", ...), reporting whether it knows the kind.
func defineFlag(fs *flag.FlagSet, kind, name string) bool {
	switch kind {
	case "String":
		fs.String(name, "", "")
	case "Int":
		fs.Int(name, 0, "")
	case "Int64":
		fs.Int64(name, 0, "")
	case "Float64":
		fs.Float64(name, 0, "")
	case "Duration":
		fs.Duration(name, 0, "")
	case "Bool":
		fs.Bool(name, false, "")
	default:
		return false
	}
	return true
}
