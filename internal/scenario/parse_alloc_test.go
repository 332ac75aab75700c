package scenario

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"repro/internal/hml"
)

// parseInputs returns the shipped lessons and the grammar corpus's valid
// documents, sorted by name.
func parseInputs(t testing.TB) (lessons, corpus []string) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "lessons", "*.hml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no lessons (err %v)", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lessons = append(lessons, string(b))
	}
	names := make([]string, 0, len(hml.GrammarCorpus()))
	for name := range hml.GrammarCorpus() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		src := hml.GrammarCorpus()[name]
		if _, err := Parse(src); err == nil {
			corpus = append(corpus, src)
		}
	}
	return lessons, corpus
}

// parseAllocs reports the mean heap objects and bytes one Parse of each of
// srcs allocates, the way testing.AllocsPerRun counts objects.
func parseAllocs(t *testing.T, srcs []string) (objs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 50
	run := func() {
		for _, src := range srcs {
			if _, err := Parse(src); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	n := float64(runs * len(srcs))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestParseAllocs bounds what parsing a document into its scenario
// allocates: token literals stay substrings of the source, and one parse
// is a handful of AST nodes and one block of streams. A lesson measured
// 85 objects and 9 480 B before the parser worked in place, 22.3 and
// 3 104 B after (go1.24, amd64); the corpus 37.2 and 3 454 B, then 15.6
// and 1 651 B. The bounds leave a tenth for another toolchain's size
// classes.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the bounds are measured without the race runtime; see race_enabled_test.go")
	}
	lessons, corpus := parseInputs(t)
	for _, c := range []struct {
		name       string
		srcs       []string
		objs, size float64
	}{
		{"lessons", lessons, 24, 3400},
		{"corpus", corpus, 17, 1800},
	} {
		objs, bytes := parseAllocs(t, c.srcs)
		t.Logf("%s: %.1f objects, %.0f B per parse", c.name, objs, bytes)
		if objs > c.objs || bytes > c.size {
			t.Errorf("%s: %.1f objects and %.0f B per parse, want ≤ %.0f and ≤ %.0f B", c.name, objs, bytes, c.objs, c.size)
		}
	}
}

// BenchmarkParseLessons parses the shipped lessons into scenarios; B/op is
// the bytes one pass over all of them allocates.
func BenchmarkParseLessons(b *testing.B) {
	lessons, _ := parseInputs(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, src := range lessons {
			if _, err := Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}
