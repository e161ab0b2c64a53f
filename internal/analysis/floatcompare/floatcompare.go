// Package floatcompare implements the kwlint analyzer that polices float
// equality in the ranking and evaluation code.
//
// The paper's ranking produces float64 scores, and ties between scores
// must go through the documented tie-breaking rule (stable order on the
// tied keys), not through `a == b` — which is both numerically fragile
// after reordered summation and a silent source of nondeterminism when
// the comparison feeds a sort.
//
// The rule: `==` and `!=` between two non-constant floating-point
// operands is flagged inside DefaultPackages. Comparing against a
// constant (`if total == 0`) is a guard, not a tie decision, and stays
// legal. _test.go files are NOT exempt: a test asserting exact equality
// on a computed score breaks on any legitimate summation reorder;
// deliberate bit-exactness assertions carry a reasoned //kwlint:ignore.
package floatcompare

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"contextrank/internal/analysis/kwutil"
)

// DefaultPackages is the ranking/eval scope where score ties are
// governed by the paper's tie-breaking rule.
const DefaultPackages = "internal/core,internal/experiments,internal/eval,internal/relevance,internal/ranksvm,internal/features,examples/trending/online,examples/senses/senses"

var scope = kwutil.NewScope(DefaultPackages)

var Analyzer = &analysis.Analyzer{
	Name: "floatcompare",
	Doc: "flag ==/!= between non-constant float64 score values in ranking/eval code\n\n" +
		"Score ties must go through the tie-breaking rule (stable key order), not exact float equality.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	sup := kwutil.NewSuppressor(pass, "floatcompare")
	defer sup.Finish()
	if !scope.InScope(pass) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.BinaryExpr)(nil)}, func(n ast.Node) {
		be := n.(*ast.BinaryExpr)
		if be.Op != token.EQL && be.Op != token.NEQ {
			return
		}
		x, okx := pass.TypesInfo.Types[be.X]
		y, oky := pass.TypesInfo.Types[be.Y]
		if !okx || !oky || !isFloat(x.Type) || !isFloat(y.Type) {
			return
		}
		// A constant operand makes this a guard (x == 0, x != initSentinel),
		// not a tie comparison between two computed scores.
		if x.Value != nil || y.Value != nil {
			return
		}
		sup.Reportf(be.OpPos, "%s between two computed floats; score ties must use the tie-breaking rule (or an epsilon), not exact equality", be.Op)
	})

	return nil, nil
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
