package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"contextrank"
	"contextrank/internal/newsgen"
)

// The one offline artifact: the file `offline train -o` writes is the bundle
// System.LoadBundle restores, and the restored ranker annotates a story
// exactly as the ranker that wrote it (training is deterministic in the
// seed, so a second TrainRanker is that ranker).
func TestTrainWritesLoadableBundle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two systems; skipped in -short")
	}
	path := filepath.Join(t.TempDir(), "bundle.bin")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"train", "-seed", "7", "-o", path}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("train exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "bundle written to "+path) {
		t.Fatalf("train output: %q", stdout.String())
	}

	sys := contextrank.Build(contextrank.SmallConfig(7))
	trained, err := sys.TrainRanker()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := sys.LoadBundle(f)
	if err != nil {
		t.Fatal(err)
	}
	stories := newsgen.Generate(sys.Internal().World, newsgen.Config{Seed: 99, NumStories: 3})
	for i := range stories {
		want, got := trained.Annotate(stories[i].Text, 0), loaded.Annotate(stories[i].Text, 0)
		if len(want) == 0 {
			t.Fatalf("story %d: no annotations", i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("story %d: bundle-restored ranker annotates differently:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"crossvalidate"},
		{"train"},
		{"train", "-scale", "huge", "-o", "x"},
		{"train", "-folds", "5"},
		{"inspect"},
		{"inspect", "-concept", "x", "-resource", "nope"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, nil, &stdout, &stderr); code != 2 {
			t.Errorf("offline %v exited %d, want 2 (stderr %q)", args, code, stderr.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("offline %v: no message on stderr", args)
		}
	}
}
