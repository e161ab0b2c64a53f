package contextrank

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
