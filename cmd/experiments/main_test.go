package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/seed1.txt from what run prints")

// Every table is a pure function of the seed on the virtual clock, so the
// whole default run is pinned byte for byte. A PR that moves a table on
// purpose reruns with -update and says why.
func TestTablesOfRecord(t *testing.T) {
	const golden = "testdata/seed1.txt"
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if *update {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(stdout.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(stdout.String(), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	t.Fatalf("output differs from %s at line %d (go test ./cmd/experiments -update rewrites it):\n got: %q\nwant: %q",
		golden, i+1, gl[i:min(i+1, len(gl))], wl[i:min(i+1, len(wl))])
}

func TestTableIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range table(io.Discard) {
		if seen[e.id] {
			t.Errorf("experiment id %s listed twice", e.id)
		}
		seen[e.id] = true
	}
	if !seen["E13"] {
		t.Error("experiment E13 missing from the table")
	}
}

func TestUnknownOnlyID(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "E13,E99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("ran something before rejecting the id: %q", stdout.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, `unknown experiment id "E99"`) || !strings.Contains(msg, "E12,E13,A1") {
		t.Errorf("stderr does not name the bad id and list the valid ones: %q", msg)
	}
}

// The artifact modes are gone: their flags must be rejected, not ignored.
func TestRetiredFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-cluster", "x.json"},
		{"-netsim", "x.json"},
		{"-verify-bench", "."},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: stderr %q", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", args, stdout.String())
		}
	}
}

func TestOnlyE13PrintsItsTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "e13"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	// Title, header, rule, then one row per crowd size.
	if len(lines) != 6 || !strings.Contains(lines[0], "federated cluster") {
		t.Fatalf("want the E13 table alone, got:\n%s", stdout.String())
	}
	for i, crowd := range []string{"12", "18", "24"} {
		if f := strings.Fields(lines[3+i]); f[0] != crowd || f[len(f)-1] != "0" {
			t.Errorf("row %d = %q, want crowd %s with 0 lost", i, lines[3+i], crowd)
		}
	}
}
