package framework

// Adapters over the served path for bench/, their only caller, which times
// layers with them; the benchonly analyzer keeps product code off them.

import (
	"contextrank/internal/match"
	"contextrank/internal/textproc"
)

// StemDoc is the stemmer stage alone: the document's stems in the Global TID
// Table, read back from their TIDs. It records no throughput.
func (rt *Runtime) StemDoc(text string) map[string]bool {
	sc := annPool.Get().(*annScratch)
	defer annPool.Put(sc)
	sc.tokens = textproc.TokenizeInto(text, sc.tokens[:0])
	rt.lookupWords(sc, true)
	stems := make(map[string]bool, sc.window.stamp(rt.Packs.TIDs.Len(), sc.tokTID))
	for _, tid := range sc.tokTID {
		if tid != match.NoID {
			stems[rt.Packs.TIDs.Token(tid)] = true
		}
	}
	return stems
}

// DocTIDs maps a document's stems to the TID set Score reads, ignoring
// stems outside the Global TID Table.
func (k *KeywordPacks) DocTIDs(stems map[string]bool) map[uint32]bool {
	out := make(map[uint32]bool, len(stems))
	for s := range stems {
		if id := k.TIDs.ID(s); id != match.NoID {
			out[id] = true
		}
	}
	return out
}

// Score is scoreNorm's relevance of concept against docTIDs, a set from
// DocTIDs, stamped into a pooled window set.
func (k *KeywordPacks) Score(concept string, docTIDs map[uint32]bool) float64 {
	sc := annPool.Get().(*annScratch)
	defer annPool.Put(sc)
	sc.window.stamp(k.TIDs.Len(), nil)
	for tid := range docTIDs {
		sc.window.mark[tid] = sc.window.gen
	}
	score, _ := k.scoreNorm(k.pack(concept), &sc.window)
	return score
}
