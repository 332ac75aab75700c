package experiments

import (
	"strings"
	"testing"
)

// TestCheckMutants pins E13's gates from outside: a passing result passes,
// and flipping one gated field per gate gets it rejected with an error naming
// that gate.
func TestCheckMutants(t *testing.T) {
	cluster, err := runClusterLoad(18)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.check(); err != nil {
		t.Fatalf("unmutated result rejected: %v", err)
	}

	cases := []struct {
		name    string
		mutate  func(*ClusterLoadResult)
		wantErr string
	}{
		{"cluster/session lost", func(r *ClusterLoadResult) { r.SessionsLost = 1 }, "lost 1 of"},
		{"cluster/no redirect rate", func(r *ClusterLoadResult) { r.RedirectRate = 0 }, "no admission redirects"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := cluster
			tc.mutate(&r)
			err := r.check()
			if err == nil {
				t.Fatal("mutant accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("mutant rejected for the wrong reason: %v (want %q)", err, tc.wantErr)
			}
		})
	}
}
