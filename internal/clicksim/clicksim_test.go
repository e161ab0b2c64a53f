package clicksim

import (
	"math"
	"testing"

	"contextrank/internal/newsgen"
	"contextrank/internal/world"
)

func testReports(t testing.TB) (*world.World, []Report) {
	t.Helper()
	w := world.New(world.Config{Seed: 101, VocabSize: 1500, NumTopics: 8, NumConcepts: 250})
	stories := newsgen.Generate(w, newsgen.Config{Seed: 102, NumStories: 120})
	return w, Simulate(stories, Config{Seed: 103})
}

func TestSimulateBasics(t *testing.T) {
	_, reports := testReports(t)
	if len(reports) != 120 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, r := range reports {
		if r.Views <= 0 {
			t.Fatal("non-positive views")
		}
		for _, e := range r.Entities {
			if e.Clicks < 0 || e.Clicks > r.Views {
				t.Fatalf("clicks %d out of [0, views=%d]", e.Clicks, r.Views)
			}
			if e.TrueCTR <= 0 || e.TrueCTR >= 1 {
				t.Fatalf("TrueCTR %v out of (0,1)", e.TrueCTR)
			}
		}
	}
}

func TestTrueCTRProperties(t *testing.T) {
	var cfg Config
	hot := &world.Concept{Interest: 0.9, Quality: 0.9}
	cold := &world.Concept{Interest: 0.05, Quality: 0.9}
	lowq := &world.Concept{Interest: 0.9, Quality: 0.05}

	if cfg.TrueCTR(hot, 1, 0) <= cfg.TrueCTR(cold, 1, 0) {
		t.Fatal("interest must raise CTR")
	}
	if cfg.TrueCTR(hot, 1, 0) <= cfg.TrueCTR(hot, 0.05, 0) {
		t.Fatal("relevance must raise CTR")
	}
	if cfg.TrueCTR(hot, 1, 0) <= cfg.TrueCTR(hot, 0.5, 0) {
		t.Fatal("graded relevance must be monotone")
	}
	if cfg.TrueCTR(hot, 1, 0) <= cfg.TrueCTR(lowq, 1, 0) {
		t.Fatal("quality must raise CTR")
	}
	if cfg.TrueCTR(hot, 1, 0) <= cfg.TrueCTR(hot, 1, 5000) {
		t.Fatal("position bias must lower CTR for later mentions")
	}
}

func TestBinomialMean(t *testing.T) {
	_, reports := testReports(t)
	// Aggregate: observed clicks should track views*TrueCTR.
	var expected, observed float64
	for _, r := range reports {
		for _, e := range r.Entities {
			expected += float64(r.Views) * e.TrueCTR
			observed += float64(e.Clicks)
		}
	}
	if expected == 0 {
		t.Fatal("zero expected clicks")
	}
	if ratio := observed / expected; math.Abs(ratio-1) > 0.1 {
		t.Fatalf("observed/expected clicks = %.3f, want ~1", ratio)
	}
}

func TestClean(t *testing.T) {
	_, reports := testReports(t)
	cleaned := Clean(reports)
	if len(cleaned) == 0 {
		t.Fatal("cleaning removed everything")
	}
	if len(cleaned) >= len(reports) {
		t.Fatal("cleaning removed nothing; simulation lacks noise")
	}
	for _, r := range cleaned {
		if r.Views < MinViews {
			t.Fatal("cleaned report with too few views")
		}
		if len(r.Entities) < MinConcepts {
			t.Fatal("cleaned report with too few concepts")
		}
		maxClicks := 0
		for _, e := range r.Entities {
			if e.Clicks > maxClicks {
				maxClicks = e.Clicks
			}
		}
		if maxClicks <= MinTopClicks {
			t.Fatal("cleaned report with no clicked concept")
		}
	}
}

// TestCleanAliasing pins the zero-copy contract: when no report is
// dropped, Clean returns the input slice itself; when some are, the result
// is a fresh slice sized to the survivors.
func TestCleanAliasing(t *testing.T) {
	_, reports := testReports(t)
	cleaned := Clean(reports)
	// The simulated log always has some noise, so this run drops reports.
	if len(cleaned) == len(reports) {
		t.Fatal("test premise broken: nothing dropped")
	}
	if &cleaned[0] == &reports[0] {
		t.Fatal("dropping run must not alias the input backing array")
	}
	// Cleaning an already-clean slice must return it unchanged, same array.
	again := Clean(cleaned)
	if len(again) != len(cleaned) {
		t.Fatalf("re-clean dropped %d reports", len(cleaned)-len(again))
	}
	if &again[0] != &cleaned[0] {
		t.Fatal("no-drop Clean must return the input slice (shared backing array)")
	}
	// A drop in the middle keeps everything before and after it.
	mixed := append([]Report(nil), cleaned...)
	mixed[1].Views = 0
	got := Clean(mixed)
	if len(got) != len(mixed)-1 {
		t.Fatalf("got %d reports, want %d", len(got), len(mixed)-1)
	}
	if got[0].Story != mixed[0].Story || got[1].Story != mixed[2].Story {
		t.Fatal("mid-slice drop reordered the survivors")
	}
	if &got[0] == &mixed[0] {
		t.Fatal("dropping run must copy, not alias")
	}
}

// TestWindowsAliasing pins the prefix-sharing contract: a story whose
// entities all sit in the first window hands out a capped view of the
// report's own Entities slice (no copy, no position shift), and appending
// to the shared slice cannot clobber the report.
func TestWindowsAliasing(t *testing.T) {
	text := make([]byte, 600)
	for i := range text {
		text[i] = 'x'
	}
	c1 := &world.Concept{Name: "one"}
	c2 := &world.Concept{Name: "two"}
	r := Report{
		Story: &newsgen.Story{ID: 7, Text: string(text)},
		Views: 100,
		Entities: []EntityStat{
			{Concept: c1, Position: 10, Clicks: 5},
			{Concept: c2, Position: 400, Clicks: 4},
		},
	}
	groups := Windows([]Report{r}, 2500, 500)
	if len(groups) != 1 {
		t.Fatalf("got %d groups, want 1", len(groups))
	}
	g := groups[0]
	if len(g.Entities) != 2 {
		t.Fatalf("group has %d entities, want 2", len(g.Entities))
	}
	if &g.Entities[0] != &r.Entities[0] {
		t.Fatal("first-window group must alias the report's Entities prefix")
	}
	// The shared prefix is capped: growing the group slice must reallocate
	// rather than write into the report's array.
	grown := append(g.Entities, EntityStat{Concept: c1, Position: 500})
	if &grown[0] == &r.Entities[0] && cap(g.Entities) != len(g.Entities) {
		t.Fatal("append grew into the report's backing array")
	}

	// A story spilling past the first window still copies and re-bases.
	long := make([]byte, 4000)
	for i := range long {
		long[i] = 'y'
	}
	r2 := Report{
		Story: &newsgen.Story{ID: 8, Text: string(long)},
		Views: 100,
		Entities: []EntityStat{
			{Concept: c1, Position: 10, Clicks: 5},
			{Concept: c2, Position: 100, Clicks: 4},
			{Concept: c2, Position: 3000, Clicks: 4},
		},
	}
	groups = Windows([]Report{r2}, 2500, 500)
	for _, g := range groups {
		if g.WindowIndex == 0 {
			continue
		}
		for i := range g.Entities {
			if &g.Entities[i] == &r2.Entities[2] {
				t.Fatal("later window aliased the report's entities")
			}
			if g.Entities[i].Position >= 2500 {
				t.Fatal("later window kept an unshifted position")
			}
		}
	}
}

func TestWindows(t *testing.T) {
	_, reports := testReports(t)
	cleaned := Clean(reports)
	groups := Windows(cleaned, 2500, 500)
	if len(groups) < len(cleaned) {
		t.Fatalf("windows (%d) should not be fewer than stories (%d)", len(groups), len(cleaned))
	}
	for _, g := range groups {
		if len(g.Entities) < MinConcepts {
			t.Fatal("window with too few entities kept")
		}
		for _, e := range g.Entities {
			if e.Position < 0 || e.Position >= len(g.Text) {
				t.Fatalf("window-relative position %d out of range (len %d)", e.Position, len(g.Text))
			}
		}
	}
}

func TestWindowOverlapDuplicatesEntities(t *testing.T) {
	_, reports := testReports(t)
	cleaned := Clean(reports)
	groups := Windows(cleaned, 2500, 500)
	// Count entity appearances per story; overlap should occasionally
	// duplicate an entity across two windows of the same story.
	type key struct{ story, pos int }
	perStory := make(map[int]int)
	for _, g := range groups {
		perStory[g.StoryID]++
	}
	multi := 0
	for _, n := range perStory {
		if n > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no story produced multiple windows")
	}
	_ = key{}
}

func TestCTRHelper(t *testing.T) {
	e := EntityStat{Clicks: 5}
	if got := e.CTR(100); got != 0.05 {
		t.Fatalf("CTR = %v", got)
	}
	if got := e.CTR(0); got != 0 {
		t.Fatalf("CTR with zero views = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	_, reports := testReports(t)
	s := Summarize(reports)
	if s.Stories != len(reports) || s.Concepts == 0 || s.Clicks == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// The signal-to-noise sanity check underlying every experiment: within a
// story, the entity with the highest TrueCTR should usually also have the
// highest observed CTR (not always, because sampling is Binomial).
func TestObservedCTRTracksLatent(t *testing.T) {
	_, reports := testReports(t)
	cleaned := Clean(reports)
	agree, total := 0, 0
	for _, r := range cleaned {
		bestTrue, bestObs := 0, 0
		for i, e := range r.Entities {
			if e.TrueCTR > r.Entities[bestTrue].TrueCTR {
				bestTrue = i
			}
			if e.Clicks > r.Entities[bestObs].Clicks {
				bestObs = i
			}
		}
		total++
		if bestTrue == bestObs {
			agree++
		}
	}
	if total == 0 {
		t.Fatal("no cleaned reports")
	}
	if ratio := float64(agree) / float64(total); ratio < 0.5 {
		t.Fatalf("top-entity agreement = %.2f; click signal too noisy", ratio)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	w := world.New(world.Config{Seed: 101, VocabSize: 800, NumTopics: 6, NumConcepts: 100})
	stories := newsgen.Generate(w, newsgen.Config{Seed: 1, NumStories: 20})
	r1 := Simulate(stories, Config{Seed: 2})
	r2 := Simulate(stories, Config{Seed: 2})
	for i := range r1 {
		if r1[i].Views != r2[i].Views {
			t.Fatal("views not deterministic")
		}
		for j := range r1[i].Entities {
			if r1[i].Entities[j].Clicks != r2[i].Entities[j].Clicks {
				t.Fatal("clicks not deterministic")
			}
		}
	}
}
