package detect

import (
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// resolveCollisionsSorted is the collision pass as a comparison sort and a
// sorted interval sweep: every key sorted by comparePriority, each
// candidate tested by one binary search of the disjoint, start-sorted kept
// list and inserted there. It is the oracle of resolveCollisions.
func resolveCollisionsSorted(ds []Detection) []Detection {
	order := make([]spanKey, 0, len(ds))
	for i := range ds {
		order = append(order, spanKey{start: ds[i].Start, end: ds[i].End, kind: ds[i].Kind, idx: i})
	}
	slices.SortFunc(order, comparePriority)
	var kept []spanKey
	for _, k := range order {
		// First kept span ending after k starts: the only possible overlap
		// candidate, since kept spans are disjoint and sorted.
		lo, hi := 0, len(kept)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if kept[mid].end > k.start {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if lo < len(kept) && kept[lo].start < k.end {
			continue
		}
		kept = slices.Insert(kept, lo, k)
	}
	var out []Detection
	for _, k := range kept {
		out = append(out, ds[k.idx])
	}
	return out
}

// runKinds are the five runs of DetectTokens' output, in emission order.
var runKinds = [5]struct {
	kind  Kind
	ptype string
}{{KindPattern, "email"}, {KindPattern, "url"}, {KindPattern, "phone"}, {KindNamed, ""}, {KindConcept, ""}}

// shapedInput concatenates five runs of spans, each sorted by start (stably,
// so equal starts keep their order), into input shaped like DetectTokens':
// emails, URLs, phones, named entities, concepts.
func shapedInput(runs *[5][][2]int) []Detection {
	var ds []Detection
	for r, spans := range runs {
		slices.SortStableFunc(spans, func(a, b [2]int) int { return a[0] - b[0] })
		for _, sp := range spans {
			ds = append(ds, Detection{
				Norm:        strconv.Itoa(len(ds)),
				Kind:        runKinds[r].kind,
				PatternType: runKinds[r].ptype,
				Start:       sp[0],
				End:         sp[1],
			})
		}
	}
	return ds
}

func checkResolveCollisions(t *testing.T, sc *scratch, ds []Detection) {
	t.Helper()
	want := resolveCollisionsSorted(ds)
	prefix := []Detection{{Norm: "caller's"}}
	got := resolveCollisions(sc, slices.Clip(prefix), ds)
	if !reflect.DeepEqual(got[:1], prefix) {
		t.Fatalf("dst's contents were overwritten: %+v", got[:1])
	}
	if got = got[1:]; len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("on %+v\n got %+v\nwant %+v", ds, got, want)
	}
}

// TestResolveCollisionsMatchesOracle holds the bucket pass to the sorted
// sweep on random inputs shaped like DetectTokens': three start-ordered
// pattern runs, emails and URLs over one span, equal starts inside a run,
// spans nested in and identical to spans of other kinds, and no input at
// all. One scratch serves every trial, as the pool would.
func TestResolveCollisionsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	sc := new(scratch)
	checkResolveCollisions(t, sc, nil)
	for trial := 0; trial < 3000; trial++ {
		textLen := 1 + rng.Intn(1+trial%400)
		span := func() [2]int {
			s := rng.Intn(textLen)
			return [2]int{s, s + 1 + rng.Intn(min(textLen-s, 40))}
		}
		var runs [5][][2]int
		for r := range runs {
			n := rng.Intn(1 + textLen/8)
			if r < 3 {
				n = rng.Intn(4)
			}
			for ; n > 0; n-- {
				runs[r] = append(runs[r], span())
			}
		}
		// Copies across runs: an email and a URL over one span, a span
		// repeated in its own run (equal starts), and spans identical to or
		// nested in another kind's.
		for c := rng.Intn(6); c > 0; c-- {
			from, to := rng.Intn(5), rng.Intn(5)
			if len(runs[from]) == 0 {
				continue
			}
			sp := runs[from][rng.Intn(len(runs[from]))]
			if rng.Intn(2) == 0 && sp[1]-sp[0] > 1 {
				sp[0] += rng.Intn(sp[1] - sp[0])
				sp[1] = sp[0] + 1 + rng.Intn(sp[1]-sp[0])
			}
			runs[to] = append(runs[to], sp)
		}
		if trial%10 == 0 && len(runs[0]) > 0 {
			runs[1] = append(runs[1], runs[0][0])
		}
		checkResolveCollisions(t, sc, shapedInput(&runs))
	}
}

// FuzzResolveCollisions is TestResolveCollisionsMatchesOracle over inputs
// decoded from bytes: three bytes a span — its run, start and length —
// shaped into DetectTokens' runs. The scratch comes from the pool, so
// inputs also meet buffers earlier ones grew.
func FuzzResolveCollisions(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 7, 1, 4, 7, 2, 0, 30, 3, 4, 3, 4, 4, 3, 4, 4, 3})
	f.Add([]byte{3, 10, 5, 3, 10, 5, 4, 10, 5, 4, 12, 1, 3, 0, 200, 4, 200, 31})
	f.Add([]byte{4, 1, 1, 4, 1, 2, 4, 1, 3, 3, 255, 255, 3, 0, 255, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var runs [5][][2]int
		for ; len(data) >= 3; data = data[3:] {
			start := int(data[1])
			runs[data[0]%5] = append(runs[data[0]%5], [2]int{start, start + 1 + int(data[2])})
		}
		sc := scratchPool.Get().(*scratch)
		defer scratchPool.Put(sc)
		checkResolveCollisions(t, sc, shapedInput(&runs))
	})
}
