// Command kwlint runs the project's static-analysis suite, the analyzers
// of kwlint.Analyzers() (internal/analysis/...).
//
// Usage:
//
//	go run ./cmd/kwlint ./...
//
// The binary is a go/analysis unitchecker wearing a driver coat. When
// invoked with package patterns it re-executes itself through
//
//	go vet -vettool=<self> <patterns>
//
// so the go tool handles package loading, export data, and caching; go
// vet then calls the same binary back per package with a *.cfg file, the
// unitchecker protocol, which is dispatched to unitchecker.Main. This
// keeps the driver fully offline and dependency-light: no go/packages,
// no process-global state, and results are cached by the build cache
// like any other vet run.
//
// go vet prints the diagnostics and owns the exit status: non-zero when
// any analyzer reports one.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"contextrank/internal/analysis/kwlint"
)

func main() {
	if unitcheckerInvocation(os.Args[1:]) {
		unitchecker.Main(kwlint.Analyzers()...) // exits
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "kwlint: cannot locate own executable:", err)
		os.Exit(1)
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, os.Args[1:]...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintln(os.Stderr, "kwlint: go vet:", err)
		os.Exit(1)
	}
}

// unitcheckerInvocation reports whether the arguments follow the
// unitchecker protocol used by go vet: a -V=full version query, a -flags
// flag enumeration, or a single JSON config file ending in .cfg.
func unitcheckerInvocation(args []string) bool {
	for _, a := range args {
		if strings.HasPrefix(a, "-V") || a == "-flags" || strings.HasSuffix(a, ".cfg") {
			return true
		}
	}
	return false
}
