// Fixture for lockguard's frozen contract: //kw:frozen-after types reject field
// writes outside their freeze method and //kw:builder methods.
package frozenfix

// Index is immutable once Freeze has run.
//
//kw:frozen-after(Freeze)
type Index struct {
	docs   []string
	counts map[string]int
	sealed bool
}

// NewIndex constructs: the build phase by definition.
func NewIndex() *Index {
	ix := &Index{counts: map[string]int{}}
	ix.docs = make([]string, 0, 8)
	return ix
}

// Add is the build-phase API.
//
//kw:builder
func (ix *Index) Add(doc string) {
	ix.docs = append(ix.docs, doc)
	ix.counts[doc]++
}

// Freeze seals the index; it may write.
func (ix *Index) Freeze() {
	ix.sealed = true
}

// Len only reads: legal anywhere.
func (ix *Index) Len() int {
	return len(ix.docs)
}

// Reset mutates outside the build phase: the bug the annotation exists
// to catch.
func (ix *Index) Reset() {
	ix.docs = nil // want `write to Index, frozen after Freeze\(\)`
}

// Touch increments a counter through the map: mutation too.
func (ix *Index) Touch(doc string) {
	ix.counts[doc]++ // want `write to Index, frozen after Freeze\(\)`
}

// Evict deletes from an owned map: mutation.
func (ix *Index) Evict(doc string) {
	delete(ix.counts, doc) // want `write to Index, frozen after Freeze\(\)`
}

// Clobber mutates from outside the type entirely.
func Clobber(ix *Index) {
	ix.sealed = false // want `write to Index, frozen after Freeze\(\)`
}

// Rebuild constructs its own value: not yet shared, free to write.
func Rebuild(docs []string) *Index {
	ix := &Index{counts: map[string]int{}}
	for _, d := range docs {
		ix.docs = append(ix.docs, d)
	}
	ix.sealed = true
	return ix
}

// Suppressed documents a deliberate post-freeze write.
func Suppressed(ix *Index) {
	ix.sealed = true //kwlint:ignore lockguard — test-only reseal helper, never on the query path
}

//kw:frozen-after(Seal) // want `type Loose has no method Seal`
type Loose struct {
	data []int
}

//kw:builder // want `//kw:builder on a method of Plain, which has no //kw:frozen-after annotation`
func (p *Plain) Grow() {}

type Plain struct{ n int }

//kw:builder // want `//kw:builder on a non-method`
func freeFunc() {}

//kw:frozen-after(Freeze) // want `misplaced //kw:frozen-after`
var notAType int

var _ = Loose{}
var _ = Plain{}
var _ = freeFunc
