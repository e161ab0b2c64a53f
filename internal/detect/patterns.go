package detect

import (
	"regexp"
	"strings"
)

// Pattern-based entity detectors (paper §II-A type 1): "primarily detected
// by regular expressions ... they typically achieve very high accuracy".
var (
	emailRe = regexp.MustCompile(`[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}`)
	urlRe   = regexp.MustCompile(`(?:https?://|www\.)[^\s<>"')\]]+`)
	phoneRe = regexp.MustCompile(`(?:\+?1[\-. ])?\(?\d{3}\)?[\-. ]\d{3}[\-. ]\d{4}`)
)

// The pattern types, in the order their detections are emitted. Emails
// come before URLs so that "mailto"-like text is not double counted;
// overlapping pattern matches are resolved by the usual collision pass
// downstream.
const (
	siteEmail = iota
	siteURL
	sitePhone
)

var patternTypes = [...]struct {
	name string
	re   *regexp.Regexp
}{siteEmail: {"email", emailRe}, siteURL: {"url", urlRe}, sitePhone: {"phone", phoneRe}}

// patternSite is a region of the text that can hold matches of one pattern
// type: the regex of that type runs on it and nowhere else.
type patternSite struct {
	ptype      int // index into patternTypes
	start, end int
}

// Byte classes of the trigger scan. Letters other than 'w', and spaces,
// have neither pOpen nor pTrigger and are stepped over.
const (
	pSpace   = 1 << iota // urlRe's \s; emailRe matches none of them either
	pPhone               // every byte a phoneRe match can contain
	pDigit               // '0' to '9'
	pOpen                // the bytes a phoneRe match can start with
	pTrigger             // '@', or ':' / 'w' where "://" / "www." may start
)

var patternClass = func() (t [256]uint8) {
	set := func(bytes string, class uint8) {
		for _, c := range bytes {
			t[c] |= class
		}
	}
	set("\t\n\f\r ", pSpace)
	set("0123456789+-. ()", pPhone)
	set("0123456789", pDigit|pOpen)
	set("+(", pOpen)
	set("@:w", pTrigger)
	return t
}()

// appendPatternSites scans text once and appends the regions where a
// pattern can match: the whitespace-delimited chunk around an '@' for
// emails and around a "://" or "www." for URLs, and for phones a run of
// phone-class bytes holding at least ten digits, from a byte a phone match
// can start with to the run's last digit (one ends on a digit). No match of
// a type crosses the edge of such a region — an email or URL match holds no
// pSpace byte, a phone match only pPhone bytes — and the regexes look at
// nothing outside their match, so running each regex per site finds exactly
// the matches of a whole-text scan (FuzzPatternGate checks it). Ordinary
// prose yields no site and pays for this scan alone.
func appendPatternSites(sites []patternSite, text string) []patternSite {
	chunkEnd := 0 // end of the last chunk looked at; chunks are visited once
	for i := 0; i < len(text); i++ {
		class := patternClass[text[i]]
		switch {
		case class&(pOpen|pTrigger) == 0:
		case class&pOpen != 0:
			start, end, digits := i, i, 0
			for ; i < len(text) && patternClass[text[i]]&pPhone != 0; i++ {
				if patternClass[text[i]]&pDigit != 0 {
					digits++
					end = i + 1
				}
			}
			if digits >= 10 {
				sites = append(sites, patternSite{sitePhone, start, end})
			}
			i-- // the byte that ended the run may be a trigger
		case i >= chunkEnd && (text[i] == '@' || strings.HasPrefix(text[i:], "://") || strings.HasPrefix(text[i:], "www.")):
			lo, hi := i, i
			for lo > chunkEnd && patternClass[text[lo-1]]&pSpace == 0 {
				lo--
			}
			for hi < len(text) && patternClass[text[hi]]&pSpace == 0 {
				hi++
			}
			chunkEnd = hi
			if strings.IndexByte(text[lo:hi], '@') >= 0 {
				sites = append(sites, patternSite{siteEmail, lo, hi})
			}
			if strings.Contains(text[lo:hi], "://") || strings.Contains(text[lo:hi], "www.") {
				sites = append(sites, patternSite{siteURL, lo, hi})
			}
		}
	}
	return sites
}

// appendPatternDetections appends the pattern entities found at sites to
// dst: all emails in text order, then all URLs, then all phones.
func appendPatternDetections(dst []Detection, text string, sites []patternSite) []Detection {
	for ptype, pt := range patternTypes {
		for _, s := range sites {
			if s.ptype != ptype {
				continue
			}
			// Match by match rather than FindAll: the regexes have no
			// anchors, so searching the rest of the site is the same search,
			// without FindAll's result slices or its extra search of a site's
			// empty tail.
			for off := s.start; off < s.end; {
				loc := pt.re.FindStringIndex(text[off:s.end])
				if loc == nil {
					break
				}
				dst = appendPattern(dst, text, pt.name, off+loc[0], off+loc[1])
				off += loc[1]
			}
		}
	}
	return dst
}

// appendPattern appends the pattern entity text[start:end] of type ptype.
func appendPattern(dst []Detection, text, ptype string, start, end int) []Detection {
	raw := text[start:end]
	// Trim trailing sentence punctuation from URLs (never all of one: it
	// starts with "http" or "www").
	if ptype == "url" {
		raw = strings.TrimRight(raw, ".,;:!?")
	}
	return append(dst, Detection{
		Text:        raw,
		Norm:        strings.ToLower(raw),
		Kind:        KindPattern,
		PatternType: ptype,
		Start:       start,
		End:         start + len(raw),
	})
}
