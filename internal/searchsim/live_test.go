package searchsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// buildLiveSegmented bulk-builds the first base docs and appends the rest
// through Add in commits of batch docs, so the published stack holds many
// small raw segments and every multi-doc query crosses segment boundaries.
func buildLiveSegmented(docs []textDoc, base, batch int) *Engine {
	e := bulkEngine(docs[:base])
	for i := base; i < len(docs); i++ {
		e.Add(docs[i].text(), docs[i].topic)
		if (i-base+1)%batch == 0 {
			e.Commit()
		}
	}
	e.Commit()
	return e
}

// fromScratch bulk-builds an engine over the full doc set in one pass — the
// reference every live-segmented answer must match byte for byte.
func fromScratch(docs []textDoc) *Engine { return bulkEngine(docs) }

// boundaryQueries is the query mix the live/from-scratch comparisons sweep:
// every single term, plus phrases of increasing length so the leapfrog
// intersection has to seek across segment boundaries in both directions.
func boundaryQueries() []string {
	qs := make([]string, 0, 80)
	for i := 0; i < 60; i++ {
		qs = append(qs, fmt.Sprintf("w%02d", i))
	}
	qs = append(qs,
		"w00 w01", "w07 w08 w09", "w10 w11 w12 w13",
		"w30 w31", "w45 w46 w47", "w58 w59",
		"w03 w03", "w20 w40", "missing w01", "w59 missing",
	)
	return qs
}

// The multi-segment cursor must answer every query identically to a single
// frozen segment over the same docs: counts, any-order counts, ranked results
// with their scores and tie order, snippets, and OR retrieval.
func TestLiveSegmentBoundarySeeks(t *testing.T) {
	docs := randomRawDocs(17, 200)
	live := buildLiveSegmented(docs, 40, 7) // ~23 raw segments above the base
	want := fromScratch(docs)
	if st := live.Stats(); st.Segments < 10 {
		t.Fatalf("test needs many segments to cross, got %d", st.Segments)
	}
	for _, q := range boundaryQueries() {
		if g, w := live.ResultCount(q), want.ResultCount(q); g != w {
			t.Fatalf("ResultCount(%q) = %d, want %d", q, g, w)
		}
		if g, w := live.ResultCountAnyOrder(q), want.ResultCountAnyOrder(q); g != w {
			t.Fatalf("ResultCountAnyOrder(%q) = %d, want %d", q, g, w)
		}
		for _, k := range []int{3, 50} {
			if g, w := live.Search(q, k), want.Search(q, k); !reflect.DeepEqual(g, w) {
				t.Fatalf("Search(%q, %d) diverged:\n  got  %v\n  want %v", q, k, g, w)
			}
		}
		for _, k := range []int{3, 20} {
			if g, w := live.Snippets(q, k), want.Snippets(q, k); !reflect.DeepEqual(g, w) {
				t.Fatalf("Snippets(%q, %d) diverged", q, k)
			}
		}
		if g, w := live.SearchAnyTerm(q, 30), want.SearchAnyTerm(q, 30); !reflect.DeepEqual(g, w) {
			t.Fatalf("SearchAnyTerm(%q) diverged", q)
		}
	}
}

// An empty Commit — no pending memtable docs — must not move the epoch, grow
// the segment stack, or invalidate the ResultCount memo.
func TestLiveEmptyCommitNoOp(t *testing.T) {
	docs := randomRawDocs(19, 30)
	e := fromScratch(docs)
	e.ResultCount("w01") // populate the memo
	before := e.Stats()
	if ep := e.Commit(); ep != before.Epoch {
		t.Fatalf("empty Commit moved epoch %d -> %d", before.Epoch, ep)
	}
	after := e.Stats()
	if after.Segments != before.Segments || after.Epoch != before.Epoch {
		t.Fatalf("empty Commit changed the stack: %+v -> %+v", before, after)
	}
	e.ResultCount("w01")
	if st := e.Stats(); st.CacheHits == 0 {
		t.Fatal("empty Commit discarded the ResultCount memo")
	}
}

// The memtable must auto-seal at memFlushDocs without an explicit Commit,
// making exactly the sealed docs visible and advancing the epoch once.
func TestLiveAutoFlush(t *testing.T) {
	e := NewEngine()
	e.Add("base doc", 0)
	e.Commit()
	ep0 := e.Epoch()
	for i := 0; i < memFlushDocs-1; i++ {
		e.Add(fmt.Sprintf("filler f%03d", i), 0)
	}
	if n := e.NumDocs(); n != 1 {
		t.Fatalf("memtable leaked before the flush threshold: NumDocs = %d, want 1", n)
	}
	e.Add("final straw", 0)
	if n := e.NumDocs(); n != 1+memFlushDocs {
		t.Fatalf("auto-flush did not publish: NumDocs = %d, want %d", n, 1+memFlushDocs)
	}
	if ep := e.Epoch(); ep != ep0+1 {
		t.Fatalf("auto-flush epoch = %d, want %d", ep, ep0+1)
	}
	if st := e.Stats(); st.MemDocs != 0 {
		t.Fatalf("memtable not drained by auto-flush: %d pending", st.MemDocs)
	}
	if got := e.ResultCount("final straw"); got != 1 {
		t.Fatalf("flushed doc not queryable: ResultCount = %d, want 1", got)
	}
}

// Compaction is deterministic: CompactAll at every GOMAXPROCS produces a
// frozen segment bit-identical to a from-scratch build over the same docs,
// and answers are unchanged across the merge.
func TestCompactionWorkerEquivalence(t *testing.T) {
	docs := randomRawDocs(23, 180)
	want := fromScratch(docs)
	for _, procs := range []int{1, 4, runtime.NumCPU()} {
		setGOMAXPROCS(t, procs)
		live := buildLiveSegmented(docs, 60, 9)
		countBefore := live.ResultCount("w05 w06")
		epBefore := live.Epoch()
		if !live.CompactAll() {
			t.Fatalf("GOMAXPROCS=%d: CompactAll did not merge a multi-segment stack", procs)
		}
		st := live.Stats()
		if st.Segments != 1 || st.Compactions != 1 {
			t.Fatalf("GOMAXPROCS=%d: post-compaction stats %+v", procs, st)
		}
		if live.Epoch() != epBefore {
			t.Fatalf("GOMAXPROCS=%d: compaction moved the epoch (no visibility change)", procs)
		}
		if !reflect.DeepEqual(live.segs[0].frozen, want.segs[0].frozen) {
			t.Fatalf("GOMAXPROCS=%d: merged frozen image differs from the from-scratch build", procs)
		}
		if got := live.ResultCount("w05 w06"); got != countBefore {
			t.Fatalf("GOMAXPROCS=%d: compaction changed an answer: %d -> %d", procs, countBefore, got)
		}
	}
}

// Size-tiered Compact must merge only eligible runs, preserve every answer,
// and report false once no run qualifies.
func TestCompactSizeTiered(t *testing.T) {
	docs := randomRawDocs(29, 160)
	live := buildLiveSegmented(docs, 40, 6)
	want := fromScratch(docs)
	rounds := 0
	for live.Compact(2) {
		rounds++
		if rounds > 100 {
			t.Fatal("Compact never converged")
		}
	}
	if rounds == 0 {
		t.Fatal("no compaction ran over a tall raw-segment stack")
	}
	st := live.Stats()
	if st.Segments >= 20 {
		t.Fatalf("size-tiered compaction left %d segments", st.Segments)
	}
	for _, q := range []string{"w00", "w10 w11", "w30 w31 w32", "w59"} {
		if g, w := live.ResultCount(q), want.ResultCount(q); g != w {
			t.Fatalf("ResultCount(%q) = %d after compaction, want %d", q, g, w)
		}
	}
}

// Queries racing the snapshot swap: one writer appends and commits, one
// compactor folds segments, many readers query. Run under -race this pins the
// no-torn-view contract; the monotonicity asserts catch a reader observing a
// rolled-back horizon.
func TestLiveQueryDuringSwapRace(t *testing.T) {
	docs := randomRawDocs(31, 400)
	e := bulkEngine(docs[:50])

	var stop atomic.Bool
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for i := 50; i < len(docs); i++ {
			e.Add(docs[i].text(), docs[i].topic)
			if i%11 == 0 {
				e.Commit()
			}
		}
		e.Commit()
		stop.Store(true)
	}()

	wg.Add(1)
	go func() { // compactor
		defer wg.Done()
		for !stop.Load() {
			e.Compact(2)
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			queries := []string{"w01", "w02 w03", "w10 w11 w12", "w40"}
			lastCount := make([]int, len(queries))
			lastDocs, lastEpoch := 0, uint64(0)
			for !stop.Load() {
				q := queries[r%len(queries)]
				if n := e.ResultCount(q); n < lastCount[r%len(queries)] {
					panic(fmt.Sprintf("ResultCount(%q) went backwards: %d -> %d", q, lastCount[r%len(queries)], n))
				} else {
					lastCount[r%len(queries)] = n
				}
				for _, res := range e.Search(q, 10) {
					if res.DocID < 0 || res.DocID >= len(docs) {
						panic(fmt.Sprintf("Search(%q) returned doc %d out of range", q, res.DocID))
					}
				}
				e.Snippets(q, 5)
				st := e.Stats()
				if st.Docs < lastDocs || st.Epoch < lastEpoch {
					panic(fmt.Sprintf("visibility went backwards: docs %d->%d epoch %d->%d",
						lastDocs, st.Docs, lastEpoch, st.Epoch))
				}
				lastDocs, lastEpoch = st.Docs, st.Epoch
				r++
			}
		}(r)
	}
	wg.Wait()

	want := fromScratch(docs)
	for _, q := range []string{"w01", "w02 w03", "w10 w11 w12", "w40"} {
		if g, w := e.ResultCount(q), want.ResultCount(q); g != w {
			t.Fatalf("post-race ResultCount(%q) = %d, want %d", q, g, w)
		}
	}
}

// There is one lifecycle: a fresh engine is already live. Every query method
// answers — with nothing — before the first document, and an Add stays
// invisible until it is sealed, here by Commit.
func TestNewEngineIsLive(t *testing.T) {
	e := NewEngine()
	empty := func(stage string) {
		t.Helper()
		if n := e.NumDocs(); n != 0 {
			t.Fatalf("%s: NumDocs = %d", stage, n)
		}
		if d, ok := e.Doc(0); ok {
			t.Fatalf("%s: Doc(0) = %+v", stage, d)
		}
		if n := e.ResultCount("one two"); n != 0 {
			t.Fatalf("%s: ResultCount = %d", stage, n)
		}
		if n := e.ResultCountAnyOrder("two one"); n != 0 {
			t.Fatalf("%s: ResultCountAnyOrder = %d", stage, n)
		}
		if r := e.Search("one two", 10); len(r) != 0 {
			t.Fatalf("%s: Search = %v", stage, r)
		}
		if r := e.SearchAnyTerm("one two", 10); len(r) != 0 {
			t.Fatalf("%s: SearchAnyTerm = %v", stage, r)
		}
		if s := e.Snippets("one two", 10); len(s) != 0 {
			t.Fatalf("%s: Snippets = %q", stage, s)
		}
		e.VisitSnippetTokens("one two", 10, func([]uint32, int, int) {
			t.Fatalf("%s: VisitSnippetTokens visited a result", stage)
		})
		NewPrisma(e).VisitFeedback("one two", func(uint32, float64) {
			t.Fatalf("%s: VisitFeedback produced a term", stage)
		})
		if e.Compact(1) || e.CompactAll() {
			t.Fatalf("%s: compaction ran over an empty stack", stage)
		}
		if st := e.Stats(); st.Docs != 0 || st.Segments != 0 || st.Epoch != 0 || e.Epoch() != 0 {
			t.Fatalf("%s: Stats = %+v", stage, st)
		}
	}
	empty("fresh")
	if ep := e.Commit(); ep != 0 {
		t.Fatalf("Commit on an empty engine moved the epoch to %d", ep)
	}
	empty("after an empty Commit")

	if id := e.Add("zero one two three", 0); id != 0 {
		t.Fatalf("first Add assigned id %d", id)
	}
	empty("uncommitted Add")
	if st := e.Stats(); st.MemDocs != 1 || st.Ingested != 1 {
		t.Fatalf("pending Add accounting: %+v", st)
	}

	if ep := e.Commit(); ep != 1 || e.Epoch() != 1 {
		t.Fatalf("first visible document: epoch %d / %d, want 1", ep, e.Epoch())
	}
	if d, ok := e.Doc(0); e.NumDocs() != 1 || !ok || d.Len() != 4 || len(d.AppendTokens(nil)) != 4 {
		t.Fatalf("committed doc not visible: NumDocs %d, Doc(0) %+v", e.NumDocs(), d)
	}
	if n := e.ResultCount("one two"); n != 1 {
		t.Fatalf("ResultCount after Commit = %d, want 1 (the empty view's memo must not survive)", n)
	}
	if s := e.Snippets("one two", 10); len(s) != 1 || s[0] != "zero one two three" {
		t.Fatalf("Snippets after Commit = %q", s)
	}
}

// The live-index property test's script: each op is an Add, a Commit, a
// Compact at 1 or 4 workers, a CompactAll or a query, and carries the
// visible horizon (NumDocs) the engine must report after it.
const (
	opAdd = iota
	opCommit
	opCompact
	opCompactAll
	opQuery
)

type liveOp struct {
	kind    int
	workers int       // opCompact
	q       liveQuery // opQuery
	horizon int
}

// liveQuery is one read: ResultCount, ResultCountAnyOrder, Search,
// Snippets or DocFreq (kind 0 to 4) of text. Search and Snippets read at
// the depth the caller asks for, one of liveDepths.
type liveQuery struct {
	kind int
	text string
}

// liveDepths are the result depths Search and Snippets are read at: the
// script checks every query at both, the reader alternates them.
var liveDepths = [2]int{20, 3}

func (q liveQuery) onEngine(e *Engine, k int) any {
	switch q.kind {
	case 0:
		return e.ResultCount(q.text)
	case 1:
		return e.ResultCountAnyOrder(q.text)
	case 2:
		return e.Search(q.text, k)
	case 3:
		return e.Snippets(q.text, k)
	default:
		return e.DocFreq(q.text)
	}
}

func (q liveQuery) onModel(ref *refEngine, k int) any {
	switch q.kind {
	case 0:
		return ref.resultCount(q.text)
	case 1:
		return ref.resultCountAnyOrder(q.text)
	case 2:
		return ref.search(q.text, k)
	case 3:
		return ref.snippets(q.text, k)
	default:
		return ref.df[q.text]
	}
}

// liveScript draws a seed's documents and op script, and the sorted list of
// every horizon the engine publishes while running it (0 included).
func liveScript(seed int64) (docs []textDoc, ops []liveOp, horizons []int) {
	rng := rand.New(rand.NewSource(seed))
	docs = randomRawDocs(seed, 400)
	query := func() liveQuery {
		q := liveQuery{kind: rng.Intn(5)}
		if q.kind == 4 || rng.Intn(4) == 0 {
			q.text = fmt.Sprintf("w%02d", rng.Intn(62)) // w60, w61: vocabulary misses
			return q
		}
		d := docs[rng.Intn(len(docs))].tokens
		lo := rng.Intn(len(d))
		q.text = strings.Join(d[lo:min(lo+1+rng.Intn(3), len(d))], " ")
		return q
	}
	added, pending, horizon := 0, 0, 0
	horizons = []int{0}
	publish := func() {
		horizon, pending = added, 0
		horizons = append(horizons, horizon)
	}
	for added < len(docs) {
		var op liveOp
		switch r := rng.Intn(100); {
		case r < 55:
			op.kind = opAdd
			added++
			if pending++; pending == memFlushDocs {
				publish()
			}
		case r < 63:
			op.kind = opCommit
			if pending > 0 {
				publish()
			}
		case r < 71:
			op.kind, op.workers = opCompact, []int{1, 4}[rng.Intn(2)]
		case r < 74:
			op.kind = opCompactAll
		default:
			op.kind, op.q = opQuery, query()
		}
		op.horizon = horizon
		ops = append(ops, op)
	}
	return docs, ops, horizons
}

// horizonModels holds refEngine over the first h docs, built once per
// horizon on demand; the script and the concurrent reader share it.
type horizonModels struct {
	docs []textDoc
	mu   sync.Mutex
	at   map[int]*refEngine
}

func (m *horizonModels) model(h int) *refEngine {
	m.mu.Lock()
	defer m.mu.Unlock()
	ref, ok := m.at[h]
	if !ok {
		ref = newRefEngine()
		for _, d := range m.docs[:h] {
			ref.add(d.text())
		}
		m.at[h] = ref
	}
	return ref
}

// TestLiveProperty is the stateful property test of the live index. Per
// seed, a random script of Add, Commit, Compact(1 or 4), CompactAll and
// queries runs against one engine, and after every op the visible horizon
// and every query answer must equal the seed-reference refEngine over the
// committed prefix; a failure names the first op that diverged. Meanwhile a
// reader queries the same engine and each of its answers must equal the
// model at some published horizon between the NumDocs it saw before and
// after the call. Subtests are named by seed, so `-run
// 'TestLiveProperty/^7$'` replays one.
func TestLiveProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			docs, ops, horizons := liveScript(seed)
			models := &horizonModels{docs: docs, at: map[int]*refEngine{}}
			e := NewEngine()
			var opIndex atomic.Int64
			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // reader
				defer wg.Done()
				rng := rand.New(rand.NewSource(-seed))
				for calls := 0; !stop.Load(); calls++ {
					op := ops[rng.Intn(len(ops))]
					if op.kind != opQuery {
						continue
					}
					k := liveDepths[calls%2]
					before := e.NumDocs()
					got := op.q.onEngine(e, k)
					after := e.NumDocs()
					i := sort.SearchInts(horizons, before)
					for ; i < len(horizons) && horizons[i] <= after; i++ {
						if reflect.DeepEqual(got, op.q.onModel(models.model(horizons[i]), k)) {
							break
						}
					}
					if i == len(horizons) || horizons[i] > after {
						t.Errorf("reader call %d (script at op %d): query %+v at depth %d = %v matches the model at no horizon in [%d, %d]",
							calls, opIndex.Load(), op.q, k, got, before, after)
						return
					}
				}
			}()
			defer func() {
				stop.Store(true)
				wg.Wait()
			}()

			added := 0
			for i, op := range ops {
				opIndex.Store(int64(i))
				switch op.kind {
				case opAdd:
					e.Add(docs[added].text(), docs[added].topic)
					added++
				case opCommit:
					e.Commit()
				case opCompact:
					e.Compact(op.workers)
				case opCompactAll:
					e.CompactAll()
				}
				if n := e.NumDocs(); n != op.horizon {
					t.Fatalf("op %d %+v: NumDocs = %d, want %d", i, op, n, op.horizon)
				}
				if op.kind != opQuery {
					continue
				}
				for _, k := range liveDepths {
					if got, want := op.q.onEngine(e, k), op.q.onModel(models.model(op.horizon), k); !reflect.DeepEqual(got, want) {
						t.Fatalf("op %d: query %+v at horizon %d, depth %d = %v, model %v", i, op.q, op.horizon, k, got, want)
					}
				}
			}
		})
	}
}
