package detect

import (
	"reflect"
	"strings"
	"testing"
)

// detectPatterns is the ungated pattern detector — every regex over the
// whole text — and the oracle the gated scan must equal: same spans, same
// types, same order.
func detectPatterns(text string) []Detection {
	var out []Detection
	for _, pt := range patternTypes {
		for _, loc := range pt.re.FindAllStringIndex(text, -1) {
			out = appendPattern(out, text, pt.name, loc[0], loc[1])
		}
	}
	return out
}

// gatedPatterns is the product's pattern detector on its own.
func gatedPatterns(text string) []Detection {
	return appendPatternDetections(nil, text, appendPatternSites(nil, text))
}

// patternGateCases are the inputs of the table test and the seeds of
// FuzzPatternGate: the pattern texts of detect_test.go, prose whose digits
// and dots are not phones, malformed and adjacent triggers, triggers at
// offset 0 and at the end of text, and multibyte neighbours.
var patternGateCases = []string{
	"",
	"Contact uirmak@yahoo-inc.com or call 408-555-1234 now.",
	"See http://svmlight.joachims.org and www.example.com/page.",
	"Write to a@b.com today.",
	"Only a@b.com here.",
	"News about it, mail a@b.com for details.",
	"the alphaword met the betaword near ctx; email a@b.com",
	"In 2007, 16549 clicks and 3.5 percent; from 1999 to 2008 (2009 - 2010) rose 12.5.",
	"Dial 1-800 or 1-800-555 for less, 1-800-555-0199 for more, +1 408.555.1234 abroad.",
	"a@b@c.com and a@@b.com and @b.com and a@b and a@b.c and a@b..com",
	"xhttp://x.y and http:/x and http:// and https://ok.example/path?q=1, www. and wwww.x.y and www.a@b.com",
	"(408) 555-1234",
	"(408) 555-1234 408 555 1234 4085551234 408-555-12345 1 408 555 1234(408)555-1234",
	"2008 2009 2010 2011 2012 2013",
	"a@b.com",
	"www.x.y",
	"408-555-1234",
	"ends with a@b.com",
	"ends with www.x.y",
	"ends with 408-555-1234",
	"é408-555-1234é and éa@b.comé and éwww.x.yé and 中http://x.y/中 and 408‑555‑1234",
	"a@b.com\tc@d.org\rhttp://t.co\vwww.v.w\fwww.f.g\n408-555-1234\t408-555-1234",
	"mail:a@b.com,c@d.org;http://x.y/z,http://u.v. (www.p.q) <www.r.s> \"www.t.u\"",
	"\xffa@b.com\xff \xe2\x82www.x.y 408\xff-555-1234",
	strings.Repeat("www.a@b.com http://x.y ", 20), // same-span email/URL ties, too many for an insertion sort
}

func checkPatternGate(t *testing.T, text string) {
	t.Helper()
	got, want := gatedPatterns(text), detectPatterns(text)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gated pattern scan differs from the whole-text scan on %q:\n got %+v\nwant %+v", text, got, want)
	}
	// The collision order is total: of the patterns matched over one span
	// the survivor is the first emitted (the email of an email/URL pair).
	for _, kept := range resolveCollisions(new(scratch), nil, got) {
		for _, d := range got {
			if d.Start == kept.Start && d.End == kept.End {
				if d.PatternType != kept.PatternType {
					t.Fatalf("on %q the %s at [%d,%d) survived the %s emitted before it", text, kept.PatternType, kept.Start, kept.End, d.PatternType)
				}
				break
			}
		}
	}
}

func TestPatternGateMatchesWholeTextScan(t *testing.T) {
	for _, text := range patternGateCases {
		checkPatternGate(t, text)
	}
	// The cases above must exercise the detectors, not only agree on nothing.
	counts := map[string]int{}
	for _, d := range gatedPatterns(strings.Join(patternGateCases, "\n")) {
		counts[d.PatternType]++
	}
	for _, pt := range patternTypes {
		if counts[pt.name] < 5 {
			t.Fatalf("only %d %s detections over the table: %v", counts[pt.name], pt.name, counts)
		}
	}
}

func FuzzPatternGate(f *testing.F) {
	for _, text := range patternGateCases {
		f.Add(text)
	}
	f.Fuzz(checkPatternGate)
}

// TestPatternFreeProseHasNoSites: the point of the gate — prose with
// years, decimals and sentence punctuation but no trigger never reaches a
// regex.
func TestPatternFreeProseHasNoSites(t *testing.T) {
	text := "In 2007 the story (3.5 percent, up from 2.1) discussed warming - in detail. It was 12 to 1."
	if sites := appendPatternSites(nil, text); len(sites) != 0 {
		t.Fatalf("pattern-free prose produced sites: %+v", sites)
	}
}
