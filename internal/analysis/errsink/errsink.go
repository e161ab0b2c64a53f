// Package errsink implements the kwlint analyzer that catches silently
// dropped write errors in the HTTP serve layer.
//
// A handler that ignores the error from json.Encoder.Encode or
// ResponseWriter.Write can ship a truncated body and still account the
// request as a success — the serve layer's throughput counters and the
// client disagree about what happened. Inside DefaultPackages every
// such error must be consumed: checked, or explicitly discarded with an
// assignment to _ (which at least documents the decision).
//
// Flagged when the call is an expression statement (results silently
// dropped) and the callee is one of:
//
//   - (*encoding/json.Encoder).Encode
//   - a Write([]byte) (int, error) method (http.ResponseWriter, io.Writer)
//   - a WriteString method returning (int, error)
//   - io.WriteString, io.Copy
//   - fmt.Fprint / Fprintf / Fprintln
//
// Calls on bytes.Buffer and strings.Builder are exempt — their writes
// are documented to never return an error. _test.go files are NOT
// exempt: a test helper that drops a write error hides the same
// truncation bugs in the fixtures it builds.
package errsink

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"contextrank/internal/analysis/kwutil"
)

// DefaultPackages scopes the analyzer to the HTTP serve layer and the
// resilience middleware that wraps it — a dropped write error in the
// chaos/recovery path would silently desynchronize the fault counters
// the CI chaos job asserts on.
const DefaultPackages = "internal/serve,internal/resilience"

var scope = kwutil.NewScope(DefaultPackages)

var Analyzer = &analysis.Analyzer{
	Name: "errsink",
	Doc: "flag dropped errors from Encode/Write calls in HTTP handlers\n\n" +
		"Handlers must check (or explicitly discard with _ =) the error from json.Encoder.Encode, ResponseWriter.Write, io.WriteString, and fmt.Fprint*.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var fmtSinks = map[string]bool{"Fprint": true, "Fprintf": true, "Fprintln": true}
var ioSinks = map[string]bool{"WriteString": true, "Copy": true}

func run(pass *analysis.Pass) (interface{}, error) {
	sup := kwutil.NewSuppressor(pass, "errsink")
	defer sup.Finish()
	if !scope.InScope(pass) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.ExprStmt)(nil)}, func(n ast.Node) {
		call, ok := ast.Unparen(n.(*ast.ExprStmt).X).(*ast.CallExpr)
		if !ok {
			return
		}
		if name := sinkName(pass.TypesInfo, call); name != "" {
			sup.Reportf(call.Pos(), "error from %s is silently dropped; handle it or discard explicitly with _ =", name)
		}
	})

	return nil, nil
}

// sinkName reports the human-readable callee name when the call is a
// write sink whose error result would be dropped, or "" otherwise.
func sinkName(info *types.Info, call *ast.CallExpr) string {
	// Package-level sinks: fmt.Fprint*, io.WriteString, io.Copy.
	if pkg, name := kwutil.PkgFunc(info, call.Fun); pkg != "" {
		switch {
		case pkg == "fmt" && fmtSinks[name]:
			return "fmt." + name
		case pkg == "io" && ioSinks[name]:
			return "io." + name
		}
		return ""
	}

	// Method sinks: Encode on *json.Encoder, Write/WriteString returning
	// (int, error) on anything except the never-failing buffer types.
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !lastResultIsError(sig) {
		return ""
	}
	recv := kwutil.ReceiverType(info, call)
	if kwutil.NamedIs(recv, "bytes", "Buffer") || kwutil.NamedIs(recv, "strings", "Builder") {
		return ""
	}
	switch fn.Name() {
	case "Encode":
		if kwutil.NamedIs(recv, "encoding/json", "Encoder") {
			return "json.Encoder.Encode"
		}
	case "Write", "WriteString":
		return "(" + types.TypeString(info.Types[sel.X].Type, types.RelativeTo(fn.Pkg())) + ")." + fn.Name()
	}
	return ""
}

func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj() != nil && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}
