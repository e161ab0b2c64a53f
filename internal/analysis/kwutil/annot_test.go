package kwutil

import (
	"go/ast"
	"testing"
)

func parse(t *testing.T, text string) (Directive, DirectiveStatus, string) {
	t.Helper()
	return ParseDirective(&ast.Comment{Slash: 1, Text: text})
}

func TestParseDirectiveOK(t *testing.T) {
	cases := []struct {
		text string
		verb string
		arg  string
	}{
		{"//kw:hotpath", "hotpath", ""},
		{"//kw:coldpath", "coldpath", ""},
		{"//kw:fresh", "fresh", ""},
		{"//kw:builder", "builder", ""},
		{"//kw:guardedby(mu)", "guardedby", "mu"},
		{"//kw:guardedby(cacheMu)", "guardedby", "cacheMu"},
		{"//kw:holds(relMu)", "holds", "relMu"},
		{"//kw:frozen-after(Freeze)", "frozen-after", "Freeze"},
	}
	for _, c := range cases {
		d, st, problem := parse(t, c.text)
		if st != DirectiveOK {
			t.Errorf("%q: status %d (%s), want OK", c.text, st, problem)
			continue
		}
		if d.Verb != c.verb || d.Arg != c.arg {
			t.Errorf("%q: got verb=%q arg=%q, want verb=%q arg=%q", c.text, d.Verb, d.Arg, c.verb, c.arg)
		}
	}
}

func TestParseDirectiveMalformed(t *testing.T) {
	// Every malformed spelling must yield a diagnostic-worthy status —
	// never NotDirective, which would silently disable a contract.
	cases := []struct {
		text  string
		owner string // analyzer that must claim the report ("" = suite owner)
	}{
		{"//kw:hotpth", ""},                  // typo: unknown verb
		{"//kw:", ""},                        // empty verb
		{"//kw:hotpath(x)", "hotpath"},       // arg on no-arg verb
		{"//kw:guardedby", "lockguard"},      // missing required arg
		{"//kw:guardedby()", "lockguard"},    // empty arg
		{"//kw:guardedby(", "lockguard"},     // unterminated
		{"//kw:guardedby(a b)", "lockguard"}, // junk arg
		{"//kw:frozen-after", "lockguard"},   // missing required arg
		{"//kw:holds( )", "lockguard"},       // blank arg
		{"//kw:fresh(x)", "poolalias"},       // arg on no-arg verb
	}
	for _, c := range cases {
		d, st, problem := parse(t, c.text)
		if st != DirectiveMalformed {
			t.Errorf("%q: status %d, want Malformed", c.text, st)
			continue
		}
		if problem == "" {
			t.Errorf("%q: malformed directive with empty problem text", c.text)
		}
		if got := OwnerOf(d.Verb); got != c.owner {
			t.Errorf("%q: owner %q, want %q", c.text, got, c.owner)
		}
	}
}

func TestParseDirectiveNotDirective(t *testing.T) {
	for _, text := range []string{
		"// plain comment",
		"// kw:hotpath with a leading space is prose, not a directive",
		"//kwlint:ignore hotpath — handled by parseIgnore, not ParseDirective",
		"//go:noinline",
	} {
		if _, st, _ := parse(t, text); st != NotDirective {
			t.Errorf("%q: status %d, want NotDirective", text, st)
		}
	}
}

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		text     string
		analyzer string
		reason   string
		ok       bool
	}{
		{"//kwlint:ignore floatcompare — asserting bit-exact determinism", "floatcompare", "asserting bit-exact determinism", true},
		{"//kwlint:ignore hotpath -- double-dash separator works too", "hotpath", "double-dash separator works too", true},
		{"//kwlint:ignore hotpath", "hotpath", "", true}, // missing reason: malformed
		{"//kwlint:ignore — no analyzer named", "", "no analyzer named", true},
		{"//kwlint:suppress hotpath — wrong keyword", "", "", true}, // still claimed as malformed
		{"// not an ignore at all", "", "", false},
		{"//kw:hotpath", "", "", false},
	}
	for _, c := range cases {
		analyzer, reason, ok := parseIgnore(c.text)
		if ok != c.ok {
			t.Errorf("%q: ok=%v, want %v", c.text, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if analyzer != c.analyzer || reason != c.reason {
			t.Errorf("%q: got (%q, %q), want (%q, %q)", c.text, analyzer, reason, c.analyzer, c.reason)
		}
	}
}

func TestAnalyzerNamesRoster(t *testing.T) {
	if len(AnalyzerNames) != 10 {
		t.Fatalf("AnalyzerNames has %d entries, want 10", len(AnalyzerNames))
	}
	seen := map[string]bool{}
	for _, n := range AnalyzerNames {
		if seen[n] {
			t.Errorf("duplicate analyzer name %q", n)
		}
		seen[n] = true
		if !KnownAnalyzer(n) {
			t.Errorf("KnownAnalyzer(%q) = false", n)
		}
	}
	if KnownAnalyzer("nosuch") {
		t.Error(`KnownAnalyzer("nosuch") = true`)
	}
	// Every verb's owner must be a real analyzer in the roster.
	for verb, owner := range verbOwner {
		if !KnownAnalyzer(owner) {
			t.Errorf("verb %q owned by unknown analyzer %q", verb, owner)
		}
		if _, ok := verbArg[verb]; !ok {
			t.Errorf("verb %q has an owner but no arg spec", verb)
		}
	}
	for verb := range verbArg {
		if verbOwner[verb] == "" {
			t.Errorf("verb %q has no owner", verb)
		}
	}
}

func TestDocDirectives(t *testing.T) {
	doc := &ast.CommentGroup{List: []*ast.Comment{
		{Slash: 1, Text: "// AnnotateCtx is the request hot path."},
		{Slash: 2, Text: "//kw:hotpath"},
		{Slash: 3, Text: "//kw:holds(mu)"},
	}}
	if !HasDirective(doc, "hotpath") {
		t.Error("HasDirective(hotpath) = false")
	}
	if HasDirective(doc, "coldpath") {
		t.Error("HasDirective(coldpath) = true")
	}
	ds := DocDirectives(doc, "holds")
	if len(ds) != 1 || ds[0].Arg != "mu" {
		t.Errorf("DocDirectives(holds) = %+v", ds)
	}
	if HasDirective(nil, "hotpath") {
		t.Error("HasDirective(nil) = true")
	}
}
