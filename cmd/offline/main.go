// Command offline is the offline side of the system (§VI) — everything
// that happens before a runtime serves a request — as subcommands over one
// contextrank.Build:
//
//	offline train -o bundle.bin [-seed N]
//	    train the ranker on the small world and write its bundle, the file
//	    `serve -bundle` loads (serve builds the same world: pass it the
//	    same -seed)
//	offline annotate -demo | < story.txt [-top N] [-html] [-render] [-seed N]
//	    train, then print a document's ranked contextual shortcuts
//	offline inspect -list N | -concept NAME [-resource R] [-seed N]
//	    show what the miners know about one concept
//
// Cross-validating the ranking methods is `experiments -run table5`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"contextrank"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run dispatches to a subcommand and returns the process exit code: 2 for a
// usage error, 1 for a failure.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "train":
			return train(args[1:], stdout, stderr)
		case "annotate":
			return annotateDoc(args[1:], stdin, stdout, stderr)
		case "inspect":
			return inspect(args[1:], stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "usage: offline train|annotate|inspect [flags]; -h after a subcommand lists its flags")
	return 2
}

// fail reports an error and returns the failure exit code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "error:", err)
	return 1
}

// train builds the system, trains the ranker and writes its bundle.
func train(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("offline train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 42, "master seed")
	out := fs.String("o", "", "write the offline bundle (tables + model) to this file")
	if fs.Parse(args) != nil {
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "need -o: the file to write the bundle to")
		return 2
	}

	fmt.Fprintln(stderr, "building world and training ranker...")
	sys := contextrank.Build(contextrank.SmallConfig(*seed))
	st := sys.DataStats()
	fmt.Fprintf(stdout, "click data: %d stories, %d concepts, %d clicks, %d windows\n",
		st.CleanStories, st.Concepts, st.Clicks, st.Windows)
	ranker, err := sys.TrainRanker()
	if err != nil {
		return fail(stderr, err)
	}
	f, err := os.Create(*out)
	if err != nil {
		return fail(stderr, err)
	}
	if err := ranker.SaveBundle(f); err != nil {
		f.Close()
		return fail(stderr, err)
	}
	if err := f.Close(); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "bundle written to %s\n", *out)
	return 0
}
