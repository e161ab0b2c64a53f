package wiki

import (
	"testing"

	"contextrank/internal/world"
)

func testWorld() *world.World {
	return world.New(world.Config{Seed: 41, VocabSize: 1200, NumTopics: 8, NumConcepts: 300})
}

func TestBuildDeterministic(t *testing.T) {
	w := testWorld()
	e1 := Build(w, Config{Seed: 1})
	e2 := Build(w, Config{Seed: 1})
	if len(e1.wordCount) != len(e2.wordCount) {
		t.Fatal("not deterministic")
	}
	for i := range w.Concepts {
		name := w.Concepts[i].Name
		if e1.WordCount(name) != e2.WordCount(name) {
			t.Fatalf("word counts differ for %q", name)
		}
	}
}

func TestMissingArticleIsZero(t *testing.T) {
	e := Build(testWorld(), Config{Seed: 2})
	if got := e.WordCount("definitely not a concept"); got != 0 {
		t.Fatalf("missing article count = %d", got)
	}
}

func TestPopularConceptsGetLongerArticles(t *testing.T) {
	w := testWorld()
	e := Build(w, Config{Seed: 3})
	var hotSum, hotN, coldSum, coldN float64
	for i := range w.Concepts {
		c := &w.Concepts[i]
		wc := float64(e.WordCount(c.Name))
		if c.Interest > 0.7 {
			hotSum += wc
			hotN++
		} else if c.Interest < 0.1 && !c.LowQuality() {
			coldSum += wc
			coldN++
		}
	}
	if hotN == 0 || coldN == 0 {
		t.Skip("world lacks extremes")
	}
	if hotSum/hotN <= coldSum/coldN {
		t.Fatalf("hot avg %.0f should exceed cold avg %.0f", hotSum/hotN, coldSum/coldN)
	}
}

func TestLowQualityRarelyHasArticles(t *testing.T) {
	w := testWorld()
	e := Build(w, Config{Seed: 4})
	withArticle := 0
	total := 0
	for i := range w.Concepts {
		c := &w.Concepts[i]
		if c.LowQuality() {
			total++
			if e.WordCount(c.Name) > 0 {
				withArticle++
			}
		}
	}
	if total > 0 && withArticle > total/2 {
		t.Fatalf("%d/%d low-quality concepts have articles", withArticle, total)
	}
}

func TestMinimumArticleLength(t *testing.T) {
	w := testWorld()
	e := Build(w, Config{Seed: 5})
	for i := range w.Concepts {
		if wc := e.WordCount(w.Concepts[i].Name); wc != 0 && wc < 30 {
			t.Fatalf("article with %d words (< 30 floor)", wc)
		}
	}
}
