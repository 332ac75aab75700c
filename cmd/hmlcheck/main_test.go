package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hml"
	"repro/internal/scenario"
	"repro/internal/server"
)

// TestVerdictIsTheServers holds hmlcheck to the server: a document is ok
// exactly when server.Database.Put stores it, an ok document prints the
// length the service plays, and a refused one prints the server's reason.
func TestVerdictIsTheServers(t *testing.T) {
	inputs := hml.GrammarCorpus() // includes Figure 2
	inputs["after-cycle"] = `<TITLE>cycle</TITLE>
<IMG SOURCE=img/a ID=a AFTER=b DURATION=1> </IMG>
<IMG SOURCE=img/b ID=b AFTER=a DURATION=1> </IMG>`
	lessons, err := filepath.Glob("../../lessons/*.hml")
	if err != nil || len(lessons) == 0 {
		t.Fatalf("no lessons: %v", err)
	}
	for _, f := range lessons {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		inputs[filepath.Base(f)] = string(data)
	}
	for name, src := range inputs {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(nil, strings.NewReader(src), &stdout, &stderr)
			if putErr := server.NewDatabase().Put("<stdin>", src, ""); putErr != nil {
				if code != 1 || !strings.Contains(stderr.String(), putErr.Error()) {
					t.Fatalf("server refuses (%v); hmlcheck exits %d with %q", putErr, code, stderr.String())
				}
				return
			}
			sc, err := scenario.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf(", length %s\n", sc.Length()); code != 0 || !strings.HasSuffix(stdout.String(), want) {
				t.Fatalf("server stores it with length %s; hmlcheck exits %d with %q %q",
					sc.Length(), code, stdout.String(), stderr.String())
			}
		})
	}
}
