// Package stem implements the Porter stemming algorithm (M.F. Porter, "An
// algorithm for suffix stripping", Program 14(3), 1980), the stemmer the
// paper cites ([17]) for normalizing relevant keywords and ranker input.
//
// The implementation follows the original five-step description, including
// the measure function m(), and matches the reference implementation's
// behaviour on the classic test vocabulary for common English words.
package stem

// Stem returns the Porter stem of word. The input is expected to be
// lower-case; non-alphabetic input is returned unchanged. Words of length
// <= 2 are returned unchanged, per the reference implementation.
func Stem(word string) string {
	var buf [32]byte
	s := AppendStem(buf[:0], word)
	if string(s) == word {
		return word
	}
	return string(s)
}

// AppendStem appends the Porter stem of word to dst and returns the
// extended slice; Stem is its string form. A stem is never longer than its
// word and every step rewrites the word in place, so nothing is allocated
// once dst has room for word, and dst's existing bytes are never touched
// (FuzzAppendStem checks all three).
func AppendStem(dst []byte, word string) []byte {
	n := len(dst)
	dst = append(dst, word...)
	if len(word) <= 2 {
		return dst
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c < 'a' || c > 'z' {
			return dst
		}
	}
	w := dst[n:]
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	w = step5b(w)
	return dst[:n+len(w)]
}

// isConsonant reports whether w[i] is a consonant in Porter's sense:
// a letter other than a,e,i,o,u, and 'y' when preceded by a vowel
// position is a vowel (i.e. y is a consonant when preceded by a vowel? —
// Porter: y is a consonant when it is preceded by a vowel... precisely,
// Y is a consonant if preceded by a consonant is false; the rule is:
// y counts as a vowel when the previous letter is a consonant).
func isConsonant(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isConsonant(w, i-1)
	}
	return true
}

// measure computes m, the number of VC sequences in w[:len(w)], per Porter:
// [C](VC)^m[V].
func measure(w []byte) int {
	n := 0
	i := 0
	// Skip initial consonants.
	for i < len(w) && isConsonant(w, i) {
		i++
	}
	for {
		// Skip vowels.
		for i < len(w) && !isConsonant(w, i) {
			i++
		}
		if i >= len(w) {
			return n
		}
		// Skip consonants — completes one VC.
		for i < len(w) && isConsonant(w, i) {
			i++
		}
		n++
	}
}

// containsVowel reports whether w contains a vowel.
func containsVowel(w []byte) bool {
	for i := range w {
		if !isConsonant(w, i) {
			return true
		}
	}
	return false
}

// endsDoubleConsonant reports whether w ends with a double consonant (e.g. -tt).
func endsDoubleConsonant(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && isConsonant(w, n-1)
}

// endsCVC reports whether w ends consonant-vowel-consonant where the final
// consonant is not w, x or y (the *o condition).
func endsCVC(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !isConsonant(w, n-3) || isConsonant(w, n-2) || !isConsonant(w, n-1) {
		return false
	}
	c := w[n-1]
	return c != 'w' && c != 'x' && c != 'y'
}

func hasSuffix(w []byte, s string) bool {
	if len(w) < len(s) {
		return false
	}
	w = w[len(w)-len(s):]
	for i := range len(s) {
		if w[i] != s[i] {
			return false
		}
	}
	return true
}

// replaceSuffix replaces suffix s with r if the stem before s has measure
// greater than minM. Returns the (possibly rewritten) word and whether the
// suffix matched (regardless of whether the replacement fired). No rule's
// replacement is longer than its suffix, so r is written over s in place.
func replaceSuffix(w []byte, s, r string, minM int) ([]byte, bool) {
	if !hasSuffix(w, s) {
		return w, false
	}
	stem := w[:len(w)-len(s)]
	if measure(stem) > minM {
		return append(stem, r...), true
	}
	return w, true
}

func step1a(w []byte) []byte {
	switch {
	case hasSuffix(w, "sses"):
		return w[:len(w)-2]
	case hasSuffix(w, "ies"):
		return w[:len(w)-2]
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if hasSuffix(w, "eed") {
		if measure(w[:len(w)-3]) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	fired := false
	if hasSuffix(w, "ed") && containsVowel(w[:len(w)-2]) {
		w = w[:len(w)-2]
		fired = true
	} else if hasSuffix(w, "ing") && containsVowel(w[:len(w)-3]) {
		w = w[:len(w)-3]
		fired = true
	}
	if !fired {
		return w
	}
	switch {
	case hasSuffix(w, "at"), hasSuffix(w, "bl"), hasSuffix(w, "iz"):
		return append(w, 'e')
	case endsDoubleConsonant(w):
		c := w[len(w)-1]
		if c != 'l' && c != 's' && c != 'z' {
			return w[:len(w)-1]
		}
	case measure(w) == 1 && endsCVC(w):
		return append(w, 'e')
	}
	return w
}

func step1c(w []byte) []byte {
	if hasSuffix(w, "y") && containsVowel(w[:len(w)-1]) {
		w = append(w[:len(w)-1], 'i')
	}
	return w
}

var step2Rules = []struct{ suffix, repl string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
	{"logi", "log"},
}

func step2(w []byte) []byte {
	for _, rule := range step2Rules {
		if hasSuffix(w, rule.suffix) {
			w, _ = replaceSuffix(w, rule.suffix, rule.repl, 0)
			return w
		}
	}
	return w
}

var step3Rules = []struct{ suffix, repl string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(w []byte) []byte {
	for _, rule := range step3Rules {
		if hasSuffix(w, rule.suffix) {
			w, _ = replaceSuffix(w, rule.suffix, rule.repl, 0)
			return w
		}
	}
	return w
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(w []byte) []byte {
	for _, s := range step4Suffixes {
		if !hasSuffix(w, s) {
			continue
		}
		stem := w[:len(w)-len(s)]
		if s == "ion" {
			// -ion requires the stem to end in s or t.
			if len(stem) == 0 || (stem[len(stem)-1] != 's' && stem[len(stem)-1] != 't') {
				return w
			}
		}
		if measure(stem) > 1 {
			return stem
		}
		return w
	}
	return w
}

func step5a(w []byte) []byte {
	if !hasSuffix(w, "e") {
		return w
	}
	stem := w[:len(w)-1]
	m := measure(stem)
	if m > 1 || (m == 1 && !endsCVC(stem)) {
		return stem
	}
	return w
}

func step5b(w []byte) []byte {
	if measure(w) > 1 && endsDoubleConsonant(w) && w[len(w)-1] == 'l' {
		return w[:len(w)-1]
	}
	return w
}
