package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.txt from what main prints")

// The example runs on the virtual clock from a fixed seed, so what it prints
// is pinned byte for byte. A change that moves it on purpose reruns with
// -update and says why.
func TestStdoutOfRecord(t *testing.T) {
	const golden = "testdata/stdout.txt"
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		drained <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	main()
	os.Stdout = stdout
	w.Close()
	got := <-drained
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	t.Fatalf("stdout differs from %s at line %d (-update rewrites it):\n got: %q\nwant: %q",
		golden, i+1, gl[i:min(i+1, len(gl))], wl[i:min(i+1, len(wl))])
}
