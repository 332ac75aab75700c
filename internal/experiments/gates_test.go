package experiments

import (
	"strings"
	"testing"
)

// checker is what E13's and E15's result types share: one check() holding
// every gate the experiment ends in.
type checker interface{ check() error }

// TestCheckMutants pins the E13 and E15 gates from outside: a passing result
// passes, and flipping one gated field per gate gets it rejected with an
// error naming that gate.
func TestCheckMutants(t *testing.T) {
	cluster, err := runClusterLoad(18)
	if err != nil {
		t.Fatal(err)
	}
	// A 2-core host's sweep: 1.5x at 4 shards clears the 1.2x gate.
	mill := func(shards int, pps float64, cross int64) NetsimLoadResult {
		return NetsimLoadResult{Shards: shards, Clients: 2048, PacketsDelivered: 4091557,
			PacketsPerSec: pps, CrossSent: cross, Digest: 1}
	}
	netsim := func() NetsimReport {
		storm := mill(8, 200_000, 9982)
		storm.Clients, storm.HeapMB = 100_000, 150
		return NetsimReport{
			Cores:         2,
			Runs:          []NetsimLoadResult{mill(1, 300_000, 0), mill(4, 450_000, 349464)},
			DeterminismOK: true,
			Storm:         StormResult{NetsimLoadResult: storm, Acked: 100_000},
		}
	}

	cases := []struct {
		name    string
		mutant  func() checker
		wantErr string
	}{
		{"cluster/session lost", func() checker {
			r := cluster
			r.SessionsLost = 1
			return r
		}, "lost 1 of"},
		{"cluster/no redirect rate", func() checker {
			r := cluster
			r.RedirectRate = 0
			return r
		}, "no admission redirects"},
		{"netsim/cross-shard clamp", func() checker {
			r := netsim()
			r.Runs[len(r.Runs)-1].CrossClamps = 1
			return r
		}, "clamped 1 cross-shard"},
		{"netsim/storm ack missing", func() checker {
			r := netsim()
			r.Storm.Acked--
			return r
		}, "storm acked"},
		{"netsim/4-shard speedup", func() checker {
			r := netsim()
			r.Runs[1].PacketsPerSec /= 10
			return r
		}, "speedup"},
	}

	for _, ok := range []checker{cluster, netsim()} {
		if err := ok.check(); err != nil {
			t.Fatalf("unmutated %T rejected: %v", ok, err)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.mutant().check()
			if err == nil {
				t.Fatal("mutant accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("mutant rejected for the wrong reason: %v (want %q)", err, tc.wantErr)
			}
		})
	}
}
