package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"contextrank/internal/detect"
	"contextrank/internal/framework"
	"contextrank/internal/newsgen"
	"contextrank/internal/serve"
)

// verdict is the outcome of checking what the clients were served.
type verdict struct {
	failed    int
	firstFail string
	// relevant/returned give precision_at_top over the clients' verified
	// prefixes: a fixed set of documents for a seed, so the ratio is exact.
	relevant, returned int
	digest             string
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if v.firstFail == "" {
		v.firstFail = fmt.Sprintf(format, args...)
	}
}

// verify compares the clients' sampled responses with the runtime called
// directly, checks that clients that fetched the same document got the
// same response, and folds the clients' warm-up digests into one.
func verify(rt *framework.Runtime, cs []*client, prefix int) verdict {
	var v verdict
	sum := sha256.New()
	for _, c := range cs {
		v.failed += c.failed
		if v.firstFail == "" {
			v.firstFail = c.firstFail
		}
		_, _ = sum.Write(c.digest.Sum(nil))

		checked := make(map[int]bool, len(c.samples))
		for n, s := range c.samples {
			if checked[s.doc] {
				continue // a repeat: already equal to the first by fingerprint
			}
			checked[s.doc] = true
			st := &c.docs[s.doc].story
			direct := rt.Annotate(st.Text, topN)
			var err error
			if c.render {
				err = sameConcepts(s.concepts, direct, len(st.Text))
			} else {
				err = sameAnnotations(s.anns, direct)
			}
			if err != nil {
				v.fail("client %d doc %d: %v", c.id, s.doc, err)
				continue
			}
			if n < prefix {
				rel, ret := precisionAtTop(st, direct)
				v.relevant += rel
				v.returned += ret
			}
		}
	}
	for i := 1; i < len(cs); i++ {
		for d, fp := range cs[i].first {
			if first := cs[0].first[d]; fp != 0 && first != 0 && fp != first {
				v.fail("doc %d: clients 0 and %d were served different responses", d, i)
			}
		}
	}
	v.digest = hex.EncodeToString(sum.Sum(nil))
	return v
}

// sameAnnotations compares a served annotation list field for field with
// the runtime's own answer.
func sameAnnotations(got []serve.AnnotationJSON, want []framework.Annotation) error {
	if len(got) != len(want) {
		return fmt.Errorf("served %d annotations, runtime returns %d", len(got), len(want))
	}
	for i, a := range want {
		d := a.Detection
		exp := serve.AnnotationJSON{
			Text: d.Text, Concept: d.Norm, Kind: d.Kind.String(),
			Score: a.Score, Relevance: a.Relevance, Start: d.Start, End: d.End,
		}
		if d.Kind == detect.KindPattern {
			exp.Type = d.PatternType
		} else if d.Entry != nil {
			exp.Type = d.Entry.Type.String()
			exp.Subtype = d.Entry.Subtype
		}
		if got[i] != exp {
			return fmt.Errorf("annotation %d: served %+v, runtime returns %+v", i, got[i], exp)
		}
	}
	return nil
}

// sameConcepts compares a rendered body's data-concept sequence with the
// runtime's annotations in the order and under the overlap rule
// annotate.Renderer.Render applies.
func sameConcepts(got []string, direct []framework.Annotation, textLen int) error {
	sorted := append([]framework.Annotation(nil), direct...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Detection.Start < sorted[j].Detection.Start })
	var want []string
	pos := 0
	for _, a := range sorted {
		d := a.Detection
		if d.Start < pos || d.End > textLen || d.End <= d.Start {
			continue
		}
		want = append(want, d.Norm)
		pos = d.End
	}
	if len(got) != len(want) {
		return fmt.Errorf("rendered %d shortcuts, runtime returns %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("shortcut %d: rendered %q, runtime returns %q", i, got[i], want[i])
		}
	}
	return nil
}

// precisionAtTop counts, among the distinct non-pattern concepts returned
// for a story, those that are ground-truth relevant mentions of it.
func precisionAtTop(st *newsgen.Story, anns []framework.Annotation) (relevant, returned int) {
	truth := make(map[string]bool, len(st.Mentions))
	for _, m := range st.Mentions {
		if m.Relevant {
			truth[m.Concept.Name] = true
		}
	}
	seen := make(map[string]bool, topN)
	for _, a := range anns {
		if a.Detection.Kind == detect.KindPattern || seen[a.Detection.Norm] {
			continue
		}
		seen[a.Detection.Norm] = true
		returned++
		if truth[a.Detection.Norm] {
			relevant++
		}
	}
	return relevant, returned
}
