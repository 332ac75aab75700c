package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadArtifact decodes a committed BENCH_*.json from the repo root into
// generic JSON. UseNumber keeps the uint64 digests and every float exactly
// as written, so an untouched field re-encodes to the same digits.
func loadArtifact(t *testing.T, name string) any {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return doc
}

// verifyOne writes doc as name into a fresh directory and verifies it alone.
func verifyOne(t *testing.T, name string, doc any) error {
	t.Helper()
	buf, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = VerifyBenchFiles(dir)
	return err
}

func obj(v any) map[string]any { return v.(map[string]any) }
func arr(v any) []any          { return v.([]any) }
func num(t *testing.T, v any) float64 {
	t.Helper()
	f, err := v.(json.Number).Float64()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestVerifyBenchFiles pins the bench-verify gates from outside: every
// committed artifact verifies as it stands, and flipping one gated field per
// gate gets the file rejected with an error naming that gate.
func TestVerifyBenchFiles(t *testing.T) {
	last := func(a []any) map[string]any { return obj(a[len(a)-1]) }
	cases := []struct {
		file, name string
		mutate     func(t *testing.T, doc any)
		wantErr    string
	}{
		{"BENCH_cluster.json", "session lost", func(t *testing.T, d any) {
			obj(arr(d)[0])["sessions_lost"] = 1
		}, "lost 1 of"},
		{"BENCH_cluster.json", "no redirect rate", func(t *testing.T, d any) {
			obj(arr(d)[0])["redirect_rate"] = 0
		}, "no admission redirects"},

		{"BENCH_netsim.json", "cross-shard clamp", func(t *testing.T, d any) {
			last(arr(obj(d)["runs"]))["cross_clamps"] = 1
		}, "clamped 1 cross-shard"},
		{"BENCH_netsim.json", "storm ack missing", func(t *testing.T, d any) {
			s := obj(obj(d)["storm"])
			s["acked"] = int64(num(t, s["acked"])) - 1
		}, "storm acked"},
		{"BENCH_netsim.json", "4-shard speedup", func(t *testing.T, d any) {
			for _, r := range arr(obj(d)["runs"]) {
				if num(t, obj(r)["shards"]) == 4 {
					obj(r)["packets_per_sec"] = num(t, obj(r)["packets_per_sec"]) / 10
					return
				}
			}
			t.Fatal("no 4-shard row in the artifact")
		}, "speedup"},
	}

	if _, err := VerifyBenchFiles(filepath.Join("..", "..")); err != nil {
		t.Fatalf("committed artifacts do not verify: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.file+"/"+tc.name, func(t *testing.T) {
			doc := loadArtifact(t, tc.file)
			if err := verifyOne(t, tc.file, doc); err != nil {
				t.Fatalf("round-tripped artifact rejected: %v", err)
			}
			tc.mutate(t, doc)
			err := verifyOne(t, tc.file, doc)
			if err == nil {
				t.Fatal("mutant accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), tc.file) {
				t.Fatalf("mutant rejected for the wrong reason: %v (want %q in %s)", err, tc.wantErr, tc.file)
			}
		})
	}
	// A leftover copy of a retired artifact must fail, not be skipped.
	t.Run("unknown artifact", func(t *testing.T) {
		err := verifyOne(t, "BENCH_dataplane.json", map[string]any{})
		if err == nil || !strings.Contains(err.Error(), "unknown benchmark artifact BENCH_dataplane.json") {
			t.Fatalf("unknown artifact: err = %v", err)
		}
	})
}
