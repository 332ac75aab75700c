package hml_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hml"
	"repro/internal/scenario"
)

// FuzzHMLRoundTrip holds parse → serialize → parse to its contract on any
// input: a document that parses serializes to text that parses, Serialize is
// a fixpoint after one round, and scenario.FromDocument gives the serialized
// document the verdict it gave the original. The corpus is seeded from the
// grammar corpus and the shipped lessons.
func FuzzHMLRoundTrip(f *testing.F) {
	for _, src := range hml.GrammarCorpus() {
		f.Add(src)
	}
	lessons, err := filepath.Glob(filepath.Join("..", "..", "lessons", "*.hml"))
	if err != nil || len(lessons) == 0 {
		f.Fatalf("no lessons to seed from (err %v)", err)
	}
	for _, p := range lessons {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}

	f.Fuzz(func(t *testing.T, src string) {
		d1, err := hml.Parse(src)
		if err != nil {
			return
		}
		s1 := hml.Serialize(d1)
		d2, err := hml.Parse(s1)
		if err != nil {
			t.Fatalf("serialized document does not parse: %v\n--- serialized ---\n%s", err, s1)
		}
		if s2 := hml.Serialize(d2); s2 != s1 {
			t.Fatalf("Serialize is not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", s1, s2)
		}
		_, err1 := scenario.FromDocument(d1)
		_, err2 := scenario.FromDocument(d2)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("FromDocument verdict changed: %v before, %v after\n--- serialized ---\n%s", err1, err2, s1)
		}
	})
}
