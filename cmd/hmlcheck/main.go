// Command hmlcheck parses and validates hypermedia markup language (HML)
// documents, optionally printing the canonical serialization, the document
// statistics and the reconstructed playout timeline. A document is "ok"
// exactly when the server would store it: the verdict and the printed
// length come from scenario.FromDocument, the build server.Database.Put
// runs.
//
// Usage:
//
//	hmlcheck [-print] [-stats] [-timeline] [file.hml ...]
//
// With no files it reads standard input. The bundled Figure 2 scenario can
// be checked with -figure2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/hml"
	"repro/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its process state passed in; it returns the exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hmlcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	printCanon := fs.Bool("print", false, "print the canonical serialization")
	showStats := fs.Bool("stats", false, "print document statistics")
	timeline := fs.Bool("timeline", false, "print the playout timeline")
	screen := fs.String("screen", "", "render the desktop layout at the given time (e.g. 3s)")
	conflicts := fs.Bool("conflicts", false, "report overlapping simultaneous placements")
	figure2 := fs.Bool("figure2", false, "check the bundled Figure 2 scenario")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	type input struct {
		name string
		src  string
	}
	var inputs []input
	if *figure2 {
		inputs = append(inputs, input{"figure2", hml.Figure2Source})
	}
	for _, f := range fs.Args() {
		data, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintf(stderr, "hmlcheck: %v\n", err)
			return 2
		}
		inputs = append(inputs, input{f, string(data)})
	}
	if len(inputs) == 0 {
		data, err := io.ReadAll(stdin)
		if err != nil {
			fmt.Fprintf(stderr, "hmlcheck: stdin: %v\n", err)
			return 2
		}
		inputs = append(inputs, input{"<stdin>", string(data)})
	}

	bad := 0
	for _, in := range inputs {
		doc, err := hml.Parse(in.src)
		if err != nil {
			fmt.Fprintf(stderr, "%s: PARSE ERROR: %v\n", in.name, err)
			bad++
			continue
		}
		doc.Name = in.name
		sc, err := scenario.FromDocument(doc)
		if err != nil {
			fmt.Fprintf(stderr, "%s: INVALID: %v\n", in.name, err)
			bad++
			continue
		}
		fmt.Fprintf(stdout, "%s: ok — %q, length %s\n", in.name, sc.Title, sc.Length())
		if *showStats {
			st := hml.Statistics(doc)
			fmt.Fprintf(stdout, "  sentences=%d headings=%d texts=%d images=%d audios=%d videos=%d sync-groups=%d links=%d (timed %d)\n",
				st.Sentences, st.Headings, st.Texts, st.Images, st.Audios, st.Videos, st.SyncGroups, st.Links, st.TimedLinks)
		}
		if *timeline {
			fmt.Fprint(stdout, scenario.RenderTimeline(sc, 64))
		}
		if *screen != "" || *conflicts {
			l, err := scenario.BuildLayout(sc)
			if err != nil {
				fmt.Fprintf(stderr, "%s: layout: %v\n", in.name, err)
				bad++
				continue
			}
			if *conflicts {
				for _, c := range l.Conflicts() {
					fmt.Fprintf(stdout, "  layout conflict: %s overlaps %s from t=%s\n", c.A, c.B, hml.FormatTime(c.From))
				}
			}
			if *screen != "" {
				at, err := hml.ParseTime(*screen)
				if err != nil {
					fmt.Fprintln(stderr, "hmlcheck:", err)
					return 2
				}
				fmt.Fprint(stdout, l.RenderScreen(at, 72, 18))
			}
		}
		if *printCanon {
			fmt.Fprint(stdout, hml.Serialize(doc))
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
