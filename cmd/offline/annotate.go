package main

import (
	"flag"
	"fmt"
	"io"

	"contextrank"
	"contextrank/internal/annotate"
	"contextrank/internal/detect"
	"contextrank/internal/newsgen"
	"contextrank/internal/textproc"
)

// annotateDoc trains the ranker, reads a document from stdin (or generates
// one with -demo) and prints its detected entities in rank order — or, with
// -render, the annotated HTML.
func annotateDoc(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("offline annotate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	demo := fs.Bool("demo", false, "annotate a generated demo story instead of stdin")
	top := fs.Int("top", 5, "number of ranked concepts to annotate (0 = all)")
	html := fs.Bool("html", false, "treat input as HTML")
	render := fs.Bool("render", false, "emit annotated HTML on stdout instead of the annotation list")
	seed := fs.Int64("seed", 42, "world seed")
	if fs.Parse(args) != nil {
		return 2
	}

	fmt.Fprintln(stderr, "building world and training ranker...")
	sys := contextrank.Build(contextrank.SmallConfig(*seed))
	ranker, err := sys.TrainRanker()
	if err != nil {
		return fail(stderr, err)
	}

	var text, raw string
	if *demo {
		stories := newsgen.Generate(sys.Internal().World, newsgen.Config{Seed: *seed + 99, NumStories: 1})
		text = stories[0].Text + " Questions? Write to newsdesk@example.com or call 408-555-0199."
		raw = text
	} else {
		data, err := io.ReadAll(stdin)
		if err != nil {
			return fail(stderr, fmt.Errorf("reading stdin: %w", err))
		}
		raw = string(data)
		text = raw
		if *html {
			text = textproc.StripHTML(raw)
		}
	}

	if *render {
		renderer := annotate.NewRenderer(nil)
		if *html {
			// Annotate the original markup in place.
			res := textproc.StripHTMLMapped(raw)
			anns := ranker.Annotate(res.Text, *top)
			fmt.Fprintln(stdout, renderer.RenderSource(raw, res, anns))
		} else {
			anns := ranker.Annotate(text, *top)
			fmt.Fprintln(stdout, renderer.Render(text, anns))
		}
		return 0
	}

	anns := ranker.Annotate(text, *top)
	fmt.Fprintf(stdout, "document: %d bytes, %d annotations\n\n", len(text), len(anns))
	for i, a := range anns {
		kind := a.Detection.Kind.String()
		if a.Detection.Kind == detect.KindPattern {
			kind = "pattern/" + a.Detection.PatternType
		} else if a.Detection.Entry != nil {
			kind = fmt.Sprintf("%s/%s", a.Detection.Entry.Type, a.Detection.Entry.Subtype)
		}
		fmt.Fprintf(stdout, "%2d. %-32q %-22s score=%.3f relevance=%.1f at byte %d\n",
			i+1, a.Detection.Text, kind, a.Score, a.Relevance, a.Detection.Start)
	}
	return 0
}
