package framework

import (
	"contextrank/internal/detect"
	"contextrank/internal/features"
	"contextrank/internal/textproc"
)

// ResolveWord resolves one word the way AnnotateCtx does, for the tests
// of package framework_test: its TID in the Global TID Table, its ids in
// the pipeline's vocabularies, and whether the word table holds it.
func (rt *Runtime) ResolveWord(w string) (tid uint32, ids detect.WordIDs, inTable bool) {
	sc := &annScratch{tokens: []textproc.Token{{Text: w, Norm: w}}}
	rt.lookupWords(sc, true)
	_, inTable = rt.words[w]
	return sc.tokTID[0], sc.tokIDs[0], inTable
}

// WordTableLen is the number of words in the runtime's word table.
func (rt *Runtime) WordTableLen() int { return len(rt.words) }

// ModelDim is the model width NewRuntime accepts.
var ModelDim = modelDim

// ServedScore is the score AnnotateCtx gives a detection of row r's concept
// whose context scored rel, relNorm, beside the row's fields.
func (rt *Runtime) ServedScore(r int, rel, relNorm float64) (float64, features.Fields) {
	return rt.score(uint32(r), rel, relNorm), rt.Interest.fieldsAt(uint32(r))
}

// stamped is docTIDs as the window set scoreNorm reads, sized for kp.
func stamped(kp *KeywordPacks, docTIDs map[uint32]bool) *tidSet {
	s := &tidSet{}
	s.stamp(kp.TIDs.Len(), nil)
	for tid := range docTIDs {
		s.mark[tid] = s.gen
	}
	return s
}

// members reads the set back as a map.
func (s *tidSet) members() map[uint32]bool {
	out := map[uint32]bool{}
	for tid, g := range s.mark {
		if g == s.gen {
			out[uint32(tid)] = true
		}
	}
	return out
}
