package framework

import (
	"contextrank/internal/detect"
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
