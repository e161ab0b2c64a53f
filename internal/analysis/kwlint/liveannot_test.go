package kwlint_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// liveAnnotations is the pinned manifest of every //kw: directive in
// the production tree: which declaration carries which contract. The
// static-analysis suite only enforces a contract where an annotation
// exists, so a silently deleted annotation would silently disable
// enforcement — this test turns that into a loud failure. If you
// intentionally add, move, or remove a directive, update this manifest
// AND the contract matrix in DESIGN.md §9.
//
// Keys are repo-root-relative files; entries are "decl directive",
// with methods and fields qualified by their receiver/struct type.
var liveAnnotations = map[string][]string{
	"internal/core/system.go": {
		"System.fieldsCache //kw:guardedby(cacheMu)",
	},
	"internal/detect/detect.go": {
		"Pipeline.Detect //kw:hotpath",
		"Pipeline.DetectTokens //kw:hotpath",
		"Pipeline.DetectTokens //kw:fresh",
		"allStopwords //kw:coldpath",
		"resolveCollisions //kw:fresh",
	},
	"internal/framework/runtime.go": {
		"Runtime.AnnotateCtx //kw:hotpath",
	},
	"internal/match/match.go": {
		"Matcher.LongestAt //kw:hotpath",
	},
	"internal/match/vocab.go": {
		"Vocab.AppendIDs //kw:hotpath",
	},
	"internal/ranksvm/ranksvm.go": {
		"Model.ScoreBuf //kw:hotpath",
	},
	"internal/searchsim/cache.go": {
		"countShard.m //kw:guardedby(mu)",
	},
	"internal/resilience/breaker.go": {
		"Breaker.state //kw:guardedby(mu)",
		"Breaker.consecFails //kw:guardedby(mu)",
		"Breaker.remainingSkips //kw:guardedby(mu)",
		"Breaker.opens //kw:guardedby(mu)",
		"Breaker.open //kw:holds(mu)",
	},
	"internal/resilience/flight.go": {
		"Flights.m //kw:guardedby(mu)",
	},
	"internal/resilience/quota.go": {
		"Quota.buckets //kw:guardedby(mu)",
		"Quota.swept //kw:guardedby(mu)",
	},
	"internal/relevance/interned.go": {
		"resolve //kw:fresh",
	},
	"internal/searchsim/engine.go": {
		"view.rankHits //kw:fresh",
	},
	"internal/searchsim/index.go": {
		"align //kw:hotpath",
		"frozenList.bitmapDocs //kw:hotpath",
		"occurrences //kw:hotpath",
		"view.bind //kw:hotpath",
		"view.countPhraseDocs //kw:hotpath",
		"view.intersectCount //kw:hotpath",
		"view.phraseHits //kw:hotpath",
	},
	"internal/searchsim/segment.go": {
		"segment //kw:frozen-after(seal)",
	},
	"internal/serve/cache.go": {
		"cacheShard.entries //kw:guardedby(mu)",
		"cacheShard.lru //kw:guardedby(mu)",
	},
	"internal/taxonomy/taxonomy.go": {
		"Dictionary.FindInIDs //kw:hotpath",
	},
	"internal/units/units.go": {
		"Set.FindInIDs //kw:hotpath",
	},
	"internal/wire/request.go": {
		"RouteKey //kw:hotpath",
		"scan //kw:hotpath",
	},
	"internal/world/compose.go": {
		"World.ComposeDoc //kw:fresh",
	},
}

// TestLiveAnnotationsPresent re-parses every manifest file and fails on
// any drift in either direction: a deleted or moved annotation (the
// contract would stop being enforced) and an undeclared new one (the
// manifest and the DESIGN.md matrix would go stale).
func TestLiveAnnotationsPresent(t *testing.T) {
	for file, want := range liveAnnotations {
		got := collectDirectives(t, filepath.Join("..", "..", "..", file))
		sortedWant := append([]string(nil), want...)
		sort.Strings(sortedWant)
		sort.Strings(got)
		if !equalStrings(got, sortedWant) {
			t.Errorf("%s: //kw: annotations drifted\n  got:  %v\n  want: %v\nupdate liveAnnotations and DESIGN.md §9 if this is intentional", file, got, sortedWant)
		}
	}
}

// TestLiveAnnotationManifestComplete sweeps the whole production tree
// so a //kw: directive added in a file the manifest has never heard of
// still shows up here. The analysis tree itself (fixtures, analyzer
// sources mentioning directives in strings) and test files are out of
// scope — the manifest tracks production contracts only.
func TestLiveAnnotationManifestComplete(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "analysis" || d.Name() == "testdata" || d.Name() == "vendor" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if !strings.Contains(string(src), "//kw:") {
				return nil
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			if _, ok := liveAnnotations[filepath.ToSlash(rel)]; !ok {
				t.Errorf("%s carries //kw: directives but is not in the liveAnnotations manifest", rel)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// collectDirectives parses file and returns every //kw: directive bound
// to a declaration, as "decl //kw:verb" strings. Binding mirrors how
// the analyzers read annotations: a directive line inside the doc
// comment of a func, type, or struct field.
func collectDirectives(t *testing.T, file string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			for _, d := range kwDirectives(n.Doc) {
				out = append(out, recvPrefix(n)+n.Name.Name+" "+d)
			}
		case *ast.GenDecl:
			// A directive on `type Foo struct {...}` parses as the
			// GenDecl's doc when the spec has no doc of its own.
			if ts, ok := firstTypeSpec(n); ok {
				for _, d := range kwDirectives(n.Doc) {
					out = append(out, ts.Name.Name+" "+d)
				}
			}
		case *ast.TypeSpec:
			for _, d := range kwDirectives(n.Doc) {
				out = append(out, n.Name.Name+" "+d)
			}
			if st, ok := n.Type.(*ast.StructType); ok {
				for _, fl := range st.Fields.List {
					for _, d := range kwDirectives(fl.Doc) {
						for _, name := range fl.Names {
							out = append(out, n.Name.Name+"."+name.Name+" "+d)
						}
					}
				}
			}
		}
		return true
	})
	return out
}

func kwDirectives(cg *ast.CommentGroup) []string {
	if cg == nil {
		return nil
	}
	var out []string
	for _, c := range cg.List {
		if strings.HasPrefix(c.Text, "//kw:") {
			out = append(out, c.Text)
		}
	}
	return out
}

func recvPrefix(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	typ := fd.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr: // generic receiver
			typ = x.X
		case *ast.Ident:
			return x.Name + "."
		default:
			return fmt.Sprintf("%T.", typ)
		}
	}
}

func firstTypeSpec(gd *ast.GenDecl) (*ast.TypeSpec, bool) {
	if gd.Tok != token.TYPE || len(gd.Specs) != 1 {
		return nil, false
	}
	ts, ok := gd.Specs[0].(*ast.TypeSpec)
	return ts, ok
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
