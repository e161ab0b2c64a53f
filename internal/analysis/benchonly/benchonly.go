// Package benchonly implements the kwlint analyzer that keeps the bench-only
// surface off the product path.
//
// The request-level benchmark (the bench/ module) is frozen, and it pins a
// few name- and map-shaped APIs the served path no longer uses. Each
// package that keeps such an API keeps it in one file named benchapi.go,
// as thin adapters over the served path. The rule: an object declared in a
// benchapi.go file is used only from a benchapi.go file or a _test.go
// file. Product code that reaches for one calls the served path instead.
package benchonly

import (
	"go/ast"
	"go/token"
	"path/filepath"

	"golang.org/x/tools/go/analysis"

	"contextrank/internal/analysis/kwutil"
)

// FileName is the one file name an adapter for bench/ may be declared in.
const FileName = "benchapi.go"

var Analyzer = &analysis.Analyzer{
	Name: "benchonly",
	Doc: "flag product uses of objects declared in a benchapi.go file\n\n" +
		"Those are adapters only bench/ and tests may call; product code calls the served path they adapt.",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	sup := kwutil.NewSuppressor(pass, "benchonly")
	defer sup.Finish()
	for _, f := range pass.Files {
		if kwutil.IsTestFile(pass.Fset, f.Pos()) || inBenchAPI(pass, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && inBenchAPI(pass, obj.Pos()) {
					sup.Reportf(id.Pos(), "%s is declared in %s for bench/ only; product code calls the served path it adapts", id.Name, FileName)
				}
			}
			return true
		})
	}
	return nil, nil
}

// inBenchAPI reports whether pos, in this package or an imported one, is
// in a benchapi.go file.
func inBenchAPI(pass *analysis.Pass, pos token.Pos) bool {
	return pos.IsValid() && filepath.Base(pass.Fset.Position(pos).Filename) == FileName
}
