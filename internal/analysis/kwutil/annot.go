package kwutil

// This file implements the machine-readable annotation layer shared by the
// contract-enforcement analyzers (DESIGN.md §9):
//
//	//kw:<verb>            e.g. //kw:hotpath
//	//kw:<verb>(<arg>)     e.g. //kw:guardedby(mu)
//
// and the first-class suppression directive:
//
//	//kwlint:ignore <analyzer> — <reason>
//
// Directives are strict: a comment beginning with "//kw:" or
// "//kwlint:" that does not parse is a diagnostic, never silently
// ignored — a typo'd //kw:hotpth must not quietly disable a contract.
// Every verb has exactly one owning analyzer (verbOwner); the owner
// reports that verb's malformed spellings, and the first analyzer in the
// suite (AnalyzerNames[0]) reports unknown verbs and malformed ignores,
// so the full-suite run reports each problem exactly once.

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// AnalyzerNames is the full kwlint suite roster in registration order:
// the ignore validator's copy of kwlint.Analyzers(), which this package
// cannot import (TestSuite keeps the two aligned).
var AnalyzerNames = []string{
	"determinism", "orderedfanout", "seededrand", "floatcompare", "errsink",
	"hotpath", "poolalias", "lockguard", "ctxflow", "benchonly",
}

// KnownAnalyzer reports whether name is in the suite roster.
func KnownAnalyzer(name string) bool {
	for _, n := range AnalyzerNames {
		if n == name {
			return true
		}
	}
	return false
}

// Directive is one parsed //kw: annotation.
type Directive struct {
	Verb string // "hotpath", "guardedby", ...
	Arg  string // parenthesized argument, "" when the verb takes none
	Pos  token.Pos
}

// verbArg records the known verbs and whether each requires an argument.
var verbArg = map[string]bool{
	"hotpath":      false, // function: allocation-discipline contract
	"coldpath":     false, // function: excluded from hotpath transitive checks
	"fresh":        false, // function: result never aliases arguments or pooled state
	"guardedby":    true,  // struct field: may only be touched with the named mutex held
	"holds":        true,  // function: caller provides the named mutex held
	"frozen-after": true,  // type: immutable once the named method has run
	"builder":      false, // method: allowed to mutate its frozen-after receiver
}

// verbOwner maps each verb to the analyzer that consumes (and therefore
// validates) it.
var verbOwner = map[string]string{
	"hotpath":      "hotpath",
	"coldpath":     "hotpath",
	"fresh":        "poolalias",
	"guardedby":    "lockguard",
	"holds":        "lockguard",
	"frozen-after": "lockguard",
	"builder":      "lockguard",
}

// DirectiveStatus classifies one comment.
type DirectiveStatus int

const (
	// NotDirective: the comment is not a //kw: annotation at all.
	NotDirective DirectiveStatus = iota
	// DirectiveOK: parsed successfully.
	DirectiveOK
	// DirectiveMalformed: begins with //kw: but does not parse.
	DirectiveMalformed
)

// ParseDirective classifies one comment. On DirectiveMalformed, problem
// describes what is wrong and d.Verb holds the verb when it was at least
// recognizable (so the owning analyzer can claim the report).
func ParseDirective(c *ast.Comment) (d Directive, st DirectiveStatus, problem string) {
	text := c.Text
	if !strings.HasPrefix(text, "//kw:") {
		return d, NotDirective, ""
	}
	d.Pos = c.Pos()
	body := text[len("//kw:"):]
	// The directive is the first token; trailing prose ("//kw:guardedby(mu)
	// — shard lock") is ignored.
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		body = body[:i]
	}
	verb, rest := body, ""
	if i := strings.IndexByte(body, '('); i >= 0 {
		verb, rest = body[:i], body[i:]
	}
	d.Verb = verb
	needsArg, known := verbArg[verb]
	if !known {
		d.Verb = "" // unknown verbs are claimed by the suite owner
		return d, DirectiveMalformed, "unknown //kw: verb " + quoteVerb(verb)
	}
	if rest == "" {
		if needsArg {
			return d, DirectiveMalformed, "//kw:" + verb + " requires an argument: //kw:" + verb + "(<name>)"
		}
		return d, DirectiveOK, ""
	}
	if needsArg {
		if !strings.HasSuffix(rest, ")") || len(rest) < 3 {
			return d, DirectiveMalformed, "malformed //kw:" + verb + " argument; want //kw:" + verb + "(<name>)"
		}
		d.Arg = rest[1 : len(rest)-1]
		if strings.TrimSpace(d.Arg) == "" || strings.ContainsAny(d.Arg, " ()") {
			return d, DirectiveMalformed, "malformed //kw:" + verb + " argument " + quoteVerb(d.Arg)
		}
		return d, DirectiveOK, ""
	}
	return d, DirectiveMalformed, "//kw:" + verb + " takes no argument"
}

func quoteVerb(v string) string {
	if len(v) > 40 {
		v = v[:40] + "…"
	}
	return "\"" + v + "\""
}

// OwnerOf returns the analyzer that owns verb ("" for unknown verbs, which
// belong to the suite owner AnalyzerNames[0]).
func OwnerOf(verb string) string { return verbOwner[verb] }

// DocDirectives returns the well-formed directives in a comment group whose
// verbs are in want (nil group is fine).
func DocDirectives(doc *ast.CommentGroup, want ...string) []Directive {
	if doc == nil {
		return nil
	}
	var out []Directive
	for _, c := range doc.List {
		d, st, _ := ParseDirective(c)
		if st != DirectiveOK {
			continue
		}
		for _, w := range want {
			if d.Verb == w {
				out = append(out, d)
				break
			}
		}
	}
	return out
}

// HasDirective reports whether doc carries //kw:<verb>.
func HasDirective(doc *ast.CommentGroup, verb string) bool {
	return len(DocDirectives(doc, verb)) > 0
}

// ReportMalformed walks every comment of the package and reports, through
// report, the malformed //kw: directives owned by analyzer name. The suite
// owner additionally claims unknown verbs. Each analyzer calls this once so
// a malformed directive is diagnosed by exactly one analyzer, whichever
// subset of the suite is running.
func ReportMalformed(pass *analysis.Pass, name string, report func(token.Pos, string)) {
	suiteOwner := name == AnalyzerNames[0]
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, st, problem := ParseDirective(c)
				if st != DirectiveMalformed {
					continue
				}
				owner := OwnerOf(d.Verb)
				if owner == name || (owner == "" && suiteOwner) {
					report(c.Pos(), problem)
				}
			}
		}
	}
}

// ignoreEntry is one //kwlint:ignore directive for a specific analyzer.
type ignoreEntry struct {
	pos  token.Pos
	used bool
}

// fileLine keys suppression to the line the directive sits on.
type fileLine struct {
	file string
	line int
}

// Suppressor routes an analyzer's diagnostics through the first-class
// ignore mechanism: a diagnostic reported on the same line as a
//
//	//kwlint:ignore <analyzer> — <reason>
//
// directive naming this analyzer is suppressed; at Finish, ignores that
// suppressed nothing are themselves reported (an unused ignore is stale
// armor — it hides nothing and must be removed). The reason is mandatory
// ("—" or "--" separated): suppressions document their judgment call.
type Suppressor struct {
	pass    *analysis.Pass
	name    string
	entries map[fileLine]*ignoreEntry
}

// NewSuppressor scans the package for ignore directives aimed at analyzer
// name. Malformed ignores (missing analyzer, unknown analyzer, missing
// reason) are reported by the suite owner only, so the full run diagnoses
// each exactly once.
func NewSuppressor(pass *analysis.Pass, name string) *Suppressor {
	s := &Suppressor{pass: pass, name: name, entries: map[fileLine]*ignoreEntry{}}
	suiteOwner := name == AnalyzerNames[0]
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				target, reason, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				switch {
				case target == "" || !KnownAnalyzer(target):
					if suiteOwner {
						pass.Reportf(c.Pos(), "malformed //kwlint:ignore: want //kwlint:ignore <analyzer> — <why>, with <analyzer> one of %s", strings.Join(AnalyzerNames, "/"))
					}
				case reason == "":
					if suiteOwner {
						pass.Reportf(c.Pos(), "//kwlint:ignore %s is missing its reason: //kwlint:ignore %s — <why>", target, target)
					}
				case target == name:
					p := pass.Fset.Position(c.Pos())
					s.entries[fileLine{p.Filename, p.Line}] = &ignoreEntry{pos: c.Pos()}
				}
			}
		}
	}
	return s
}

// parseIgnore splits "//kwlint:ignore <analyzer> — <reason>". ok is false
// for comments that are not ignore directives at all.
func parseIgnore(text string) (analyzer, reason string, ok bool) {
	if !strings.HasPrefix(text, "//kwlint:") {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, "//kwlint:")
	if !strings.HasPrefix(rest, "ignore") {
		return "", "", true // //kwlint: with a bad keyword: malformed ignore
	}
	rest = strings.TrimSpace(strings.TrimPrefix(rest, "ignore"))
	for _, sep := range []string{"—", "--"} {
		if i := strings.Index(rest, sep); i >= 0 {
			return strings.TrimSpace(rest[:i]), strings.TrimSpace(rest[i+len(sep):]), true
		}
	}
	return strings.TrimSpace(rest), "", true
}

// Report forwards d unless an ignore for this analyzer sits on its line.
func (s *Suppressor) Report(d analysis.Diagnostic) {
	p := s.pass.Fset.Position(d.Pos)
	if e, ok := s.entries[fileLine{p.Filename, p.Line}]; ok {
		e.used = true
		return
	}
	s.pass.Report(d)
}

// Reportf is the printf form of Report.
func (s *Suppressor) Reportf(pos token.Pos, format string, args ...interface{}) {
	s.Report(analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Finish reports ignores that suppressed nothing. Call after the analyzer's
// main pass.
func (s *Suppressor) Finish() {
	for _, e := range s.entries {
		if !e.used {
			s.pass.Reportf(e.pos, "unused //kwlint:ignore for %s: it suppresses nothing — remove it", s.name)
		}
	}
}
