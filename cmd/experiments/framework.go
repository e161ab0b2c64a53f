package main

import (
	"fmt"
	"io"

	"contextrank"
	"contextrank/internal/newsgen"
)

// runFramework reproduces the §VI experiments: memory footprints of the
// packed tables (18 B/concept interestingness, 400 B/concept keywords,
// Golomb savings) and the stemmer/ranker throughput over randomly chosen
// documents (the paper used 1445 documents averaging 2.5 KB with 6.45
// detections; their 2007 Opteron measured 7.9 and 2.4 MB/s).
func runFramework(w io.Writer, sys *contextrank.System, seed int64) error {
	fmt.Fprintln(w, "== §VI framework: memory layout and throughput")

	// The runtime as the offline build assembles it: the packed tables
	// around the model trained on the click data.
	ranker, err := sys.TrainRanker()
	if err != nil {
		return err
	}
	rt := ranker.Runtime()
	table, packs := rt.Interest, rt.Packs
	fmt.Fprintf(w, "  interestingness table: %d concepts, %d bytes (%.0f B/concept; paper: 18 B -> 18 MB per 1M concepts)\n",
		table.Len(), table.MemoryBytes(), float64(table.MemoryBytes())/float64(table.Len()))

	fmt.Fprintf(w, "  keyword packs: %d concepts, %d bytes raw (%.0f B/concept; paper: 400 B -> 400 MB per 1M concepts), %d TIDs interned\n",
		packs.Len(), packs.TotalBytes(), float64(packs.TotalBytes())/float64(packs.Len()), packs.TIDs.Len())

	compressed := packs.GolombBytes()
	fmt.Fprintf(w, "  golomb-compressed packs: %d bytes (%.1f%% of raw; paper suggests Golomb coding as a further reduction)\n",
		compressed, 100*float64(compressed)/float64(packs.TotalBytes()))

	// Throughput on fresh documents.
	docs := newsgen.Generate(sys.Internal().World, newsgen.Config{Seed: seed + 9, NumStories: 400, MinSentences: 12, MaxSentences: 24})
	totalBytes, totalDetections := 0, 0
	for i := range docs {
		anns := rt.Annotate(docs[i].Text, 0)
		totalBytes += len(docs[i].Text)
		totalDetections += len(anns)
	}
	stemMBps, rankMBps := rt.Throughput()
	fmt.Fprintf(w, "  %d docs, avg %.1f KB, avg %.2f detections/doc (paper: 1445 docs, 2.5 KB, 6.45 detections)\n",
		len(docs), float64(totalBytes)/float64(len(docs))/1024, float64(totalDetections)/float64(len(docs)))
	fmt.Fprintf(w, "  throughput: stemmer %.1f MB/s, ranker %.1f MB/s (paper on 2007 hardware: 7.9 and 2.4 MB/s)\n\n",
		stemMBps, rankMBps)
	return nil
}
