package textproc

// stopwords is the stop-word list used throughout the system. The paper
// removes stop-words before building the term vector (§II-B).
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "but": true, "by": true, "for": true, "from": true,
	"has": true, "have": true, "had": true, "he": true, "her": true,
	"hers": true, "him": true, "his": true, "i": true, "in": true,
	"into": true, "is": true, "it": true, "its": true, "me": true,
	"my": true, "of": true, "on": true, "or": true, "our": true,
	"she": true, "so": true, "that": true, "the": true, "their": true,
	"them": true, "then": true, "there": true, "these": true, "they": true,
	"this": true, "those": true, "to": true, "was": true, "we": true,
	"were": true, "what": true, "when": true, "where": true, "which": true,
	"who": true, "whom": true, "why": true, "will": true, "with": true,
	"would": true, "you": true, "your": true, "yours": true, "not": true,
	"no": true, "nor": true, "do": true, "does": true, "did": true,
	"been": true, "being": true, "am": true, "if": true, "than": true,
	"too": true, "very": true, "can": true, "could": true, "should": true,
	"also": true, "about": true, "after": true, "before": true,
	"between": true, "during": true, "over": true, "under": true,
	"up": true, "down": true, "out": true, "off": true, "again": true,
	"more": true, "most": true, "some": true, "such": true, "only": true,
	"own": true, "same": true, "other": true, "each": true, "few": true,
	"all": true, "any": true, "both": true, "how": true, "here": true,
	"said": true, "says": true, "say": true, "one": true, "two": true,
	"new": true, "just": true, "now": true, "while": true, "because": true,
	"through": true, "against": true, "however": true, "since": true,
}

// IsStopword reports whether the normalized word w is a stop-word.
func IsStopword(w string) bool { return stopwords[w] }

// Stopwords returns the stop-word list, in no fixed order.
func Stopwords() []string {
	words := make([]string, 0, len(stopwords))
	for w := range stopwords {
		words = append(words, w)
	}
	return words
}

// ContentWords returns the normalized word tokens of text with stop-words
// removed.
func ContentWords(text string) []string {
	words := Words(text)
	out := words[:0]
	for _, w := range words {
		if !stopwords[w] {
			out = append(out, w)
		}
	}
	return out
}
