package searchsim

import (
	"testing"
	"unsafe"

	"contextrank/internal/textproc"
)

// aliases reports whether any byte of s lies inside text's bytes.
func aliases(s, text string) bool {
	if s == "" || text == "" {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	return p+uintptr(len(s)) > lo && p < lo+uintptr(len(text))
}

// checkOwnsTokens fails if a vocabulary token shares bytes with one of the
// indexed texts.
func checkOwnsTokens(t *testing.T, label string, e *Engine, texts []string) {
	t.Helper()
	for id := uint32(0); int(id) < e.vocab.Len(); id++ {
		tok := e.vocab.Token(id)
		for i, text := range texts {
			if aliases(tok, text) {
				t.Fatalf("%s: vocabulary token %q points into document %d's text", label, tok, i)
			}
		}
	}
}

// The index keeps no document text. Tokens arrive as substrings of their
// document, so a vocabulary that stored them as given would keep every
// document that first used a term alive for the engine's lifetime. Both
// ways in are checked: Add, and the bulk build BuildCorpus runs over
// generator-tokenized documents.
func TestVocabOwnsTokens(t *testing.T) {
	e := NewEngine()
	for _, text := range smallTexts {
		e.Add(text, 0)
	}
	e.Commit()
	checkOwnsTokens(t, "Add", e, smallTexts)

	docs := make([]rawDoc, len(smallTexts))
	for i, text := range smallTexts {
		docs[i] = rawDoc{tokens: textproc.Words(text)}
	}
	checkOwnsTokens(t, "bulk build", newBulkEngine(docs), smallTexts)
}
