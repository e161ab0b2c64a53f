package match

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// oracle is a vocabulary as a map and a slice: the semantics Vocab's pages,
// offset chunks and hash table implement.
type oracle struct {
	ids  map[string]uint32
	toks []string
}

func newOracle() *oracle { return &oracle{ids: map[string]uint32{}} }

func (o *oracle) intern(tok string) uint32 {
	if id, ok := o.ids[tok]; ok {
		return id
	}
	id := uint32(len(o.toks))
	o.ids[tok] = id
	o.toks = append(o.toks, tok)
	return id
}

func (o *oracle) id(tok string) uint32 {
	if id, ok := o.ids[tok]; ok {
		return id
	}
	return NoID
}

// checkVocab holds every id of v to the oracle: the count, each token, and
// each token's id looked up as a string and as bytes.
func checkVocab(t *testing.T, v *Vocab, o *oracle) {
	t.Helper()
	if v.Len() != len(o.toks) {
		t.Fatalf("Len = %d, oracle %d", v.Len(), len(o.toks))
	}
	for id, tok := range o.toks {
		if got := v.Token(uint32(id)); got != tok {
			t.Fatalf("Token(%d) = %.40q, oracle %.40q", id, got, tok)
		}
		if got := v.ID(tok); got != uint32(id) {
			t.Fatalf("ID(%.40q) = %d, oracle %d", tok, got, id)
		}
		if got := v.IDBytes([]byte(tok)); got != uint32(id) {
			t.Fatalf("IDBytes(%.40q) = %d, oracle %d", tok, got, id)
		}
	}
}

// The fuzz budget bounds what one input may build: a few tokens longer
// than a page, and enough short ones for several table growths.
const (
	fuzzLongTokens = 4
	fuzzMaxTerms   = 1 << 14
)

// FuzzVocab drives Intern, InternBytes, ID, IDBytes, Token, Len and
// AppendIDs with an operation script cut from the input and holds every
// answer to the map-and-slice oracle. Each operation is one byte — the op
// in its low three bits, a token length in the rest — then that many token
// bytes, so tokens are empty, repeated, any bytes at all, or (op 4) a
// token repeated past a page, or (op 5) 200 numbered variants of one token.
func FuzzVocab(f *testing.F) {
	f.Add([]byte("\x08a\x08a\x00\x10bc\x12bc\x02\x13zz\x1b\xc3\xa9\xe6\x97\xa5"))
	f.Add([]byte("\x0dab\x05\x0dcd\x25\x04\x06\x07\x0f\x17"))
	f.Add([]byte("\x0cx\x0cx\x0cy\x0d\x05\x0e\xff\x02\x0f"))
	f.Add([]byte("\x18\xe2\x82\xac\x09\x80\x11\x00\x01\x16\x00\x80\x1e\xf0\x9f\x98\x80"))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, o := NewVocab(), newOracle()
		long := 0
		for len(data) > 0 {
			op := data[0]
			n := min(int(op>>3), len(data)-1)
			tok := string(data[1 : 1+n])
			data = data[1+n:]
			switch op & 7 {
			case 0:
				if got, want := v.Intern(tok), o.intern(tok); got != want {
					t.Fatalf("Intern(%q) = %d, oracle %d", tok, got, want)
				}
			case 1:
				if got, want := v.InternBytes([]byte(tok)), o.intern(tok); got != want {
					t.Fatalf("InternBytes(%q) = %d, oracle %d", tok, got, want)
				}
			case 2:
				if got, want := v.ID(tok), o.id(tok); got != want {
					t.Fatalf("ID(%q) = %d, oracle %d", tok, got, want)
				}
			case 3:
				if got, want := v.IDBytes([]byte(tok)), o.id(tok); got != want {
					t.Fatalf("IDBytes(%q) = %d, oracle %d", tok, got, want)
				}
			case 4:
				if long == fuzzLongTokens {
					continue
				}
				long++
				big := strings.Repeat(tok+"\xff", maxPage/(n+1)+1)
				if got, want := v.Intern(big), o.intern(big); got != want || v.Token(got) != big {
					t.Fatalf("Intern(%d bytes of %q) = %d, oracle %d", len(big), tok, got, want)
				}
			case 5:
				for i := 0; i < 200 && len(o.toks) < fuzzMaxTerms; i++ {
					w := tok + strconv.Itoa(i)
					if got, want := v.Intern(w), o.intern(w); got != want {
						t.Fatalf("Intern(%q) = %d, oracle %d", w, got, want)
					}
				}
			case 6:
				toks := append([]string{tok}, o.toks[:min(len(o.toks), 8)]...)
				got := v.AppendIDs([]uint32{7}, toks)
				if len(got) != len(toks)+1 || got[0] != 7 {
					t.Fatalf("AppendIDs returned %d ids over a 1-id dst for %d tokens", len(got), len(toks))
				}
				for i, w := range toks {
					if got[i+1] != o.id(w) {
						t.Fatalf("AppendIDs: %.40q -> %d, oracle %d", w, got[i+1], o.id(w))
					}
				}
			case 7:
				if v.Len() != len(o.toks) {
					t.Fatalf("Len = %d, oracle %d", v.Len(), len(o.toks))
				}
				if len(o.toks) > 0 {
					id := uint32(n) % uint32(len(o.toks))
					if got := v.Token(id); got != o.toks[id] {
						t.Fatalf("Token(%d) = %.40q, oracle %.40q", id, got, o.toks[id])
					}
				}
			}
		}
		checkVocab(t, v, o)
	})
}

// concurrentTerm is the term the writer of TestVocabConcurrentReaders
// interns as id: distinct per id, of varied length, some non-ASCII, and
// every 4,096th longer than a page.
func concurrentTerm(id int) string {
	if id%4096 == 4095 {
		return strconv.Itoa(id) + strings.Repeat("λ", maxPage/2+1)
	}
	return fmt.Sprintf("t%d%s", id, strings.Repeat("é", id%7))
}

// One writer interns while readers resolve every id the vocabulary has
// published: Token(id) is the id's term and ID(term) the id, through table
// growths, new offset chunks and new pages, and Len never goes back. Run
// it under -race (make race) for the memory-model half of the contract.
func TestVocabConcurrentReaders(t *testing.T) {
	const terms = 20000
	v := NewVocab()
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 0
			for {
				last := done.Load()
				n := v.Len()
				if n < seen {
					t.Errorf("Len went back from %d to %d", seen, n)
					return
				}
				for id := seen; id < n; id++ {
					want := concurrentTerm(id)
					if got := v.Token(uint32(id)); got != want {
						t.Errorf("Token(%d) = %.40q, want %.40q", id, got, want)
						return
					}
					if got := v.ID(want); got != uint32(id) {
						t.Errorf("ID of published term %d = %d", id, got)
						return
					}
				}
				// A term not yet published is unknown, or published since.
				if got := v.ID(concurrentTerm(n)); got != NoID && got != uint32(n) {
					t.Errorf("ID of term %d, unpublished at Len %d, = %d", n, n, got)
					return
				}
				seen = n
				if last {
					if n != terms {
						t.Errorf("reader saw Len %d after the writer finished, want %d", n, terms)
					}
					return
				}
			}
		}()
	}
	for id := 0; id < terms; id++ {
		if got := v.Intern(concurrentTerm(id)); got != uint32(id) {
			t.Fatalf("Intern of term %d = %d", id, got)
		}
	}
	done.Store(true)
	wg.Wait()
}

// Token and the lookups allocate nothing: a token is a slice of its page.
func TestVocabLookupsZeroAlloc(t *testing.T) {
	v := NewVocab()
	for i := 0; i < 1000; i++ {
		v.Intern("w" + strconv.Itoa(i))
	}
	b := []byte("w500")
	allocs := testing.AllocsPerRun(100, func() {
		if v.Token(v.ID("w999")) != "w999" || v.IDBytes(b) != 500 || v.ID("nope") != NoID {
			t.Fatal("lookup mismatch")
		}
	})
	if allocs != 0 {
		t.Fatalf("lookups allocated %.1f objects per run", allocs)
	}
}

// Tokens at the page edges: an empty one, the one-byte and two-byte
// uvarint lengths, one whose length and bytes fill an ordinary page
// exactly, one a byte too long for it (an exact page of its own) and one
// of three pages, interned between short ones that keep filling the
// ordinary pages.
func TestVocabPageEdges(t *testing.T) {
	v, o := NewVocab(), newOracle()
	for i, n := range []int{0, 1, 127, 128, maxPage - 3, maxPage - 2, 3 * maxPage} {
		for _, tok := range []string{strings.Repeat(string(rune('a'+i)), n), "short" + strconv.Itoa(i)} {
			if got, want := v.Intern(tok), o.intern(tok); got != want {
				t.Fatalf("Intern(%d bytes) = %d, oracle %d", len(tok), got, want)
			}
		}
	}
	checkVocab(t, v, o)
}
