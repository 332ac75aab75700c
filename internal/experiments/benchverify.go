package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// This file is the BENCH_*.json gate: `make bench-verify` (part of `make
// check`) re-validates the *committed* benchmark artifacts without re-running
// the benchmarks, so a PR cannot silently regress a gated invariant or drop a
// reporting field the docs promise. It holds no gate of its own: each report
// type's check() is the one place its conditions are written, and the
// generator that produced the file ended in the same call. Every BENCH file
// in the repo root must be in the table below; an unknown one fails
// verification so new benchmarks must register.

// benchArtifacts maps each committed artifact to its decode-and-check.
var benchArtifacts = map[string]func([]byte) error{
	"BENCH_cluster.json": checkArtifact[ClusterReport],
	"BENCH_netsim.json":  checkArtifact[NetsimReport],
}

func checkArtifact[R interface{ check() error }](buf []byte) error {
	var rep R
	if err := json.Unmarshal(buf, &rep); err != nil {
		return err
	}
	return rep.check()
}

// VerifyBenchFiles validates every BENCH_*.json under dir. It returns a
// human-readable summary of what was checked, or an error naming the first
// violated invariant.
func VerifyBenchFiles(dir string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return "", fmt.Errorf("bench-verify: no BENCH_*.json found under %s", dir)
	}
	summary := ""
	for _, p := range paths {
		base := filepath.Base(p)
		check, ok := benchArtifacts[base]
		if !ok {
			return "", fmt.Errorf("bench-verify: unknown benchmark artifact %s (register it in internal/experiments/benchverify.go)", base)
		}
		buf, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		if err := check(buf); err != nil {
			return "", fmt.Errorf("bench-verify: %s: %w", p, err)
		}
		summary += base + " OK\n"
	}
	return summary, nil
}
