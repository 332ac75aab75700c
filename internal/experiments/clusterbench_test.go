package experiments

import "testing"

// TestRunClusterLoadInvariants runs the full seeded harness scenario — flash
// crowd, watermark redirects, cross-server handoffs, mid-lesson shard kill —
// at the three crowd sizes E13 tabulates. Each run must pass check(), and
// because the scenario is deterministic its counters are pinned exactly: a
// protocol change that moves one has to change this table and say why.
func TestRunClusterLoadInvariants(t *testing.T) {
	for _, tc := range []struct {
		crowd               int
		redirects, handoffs int64
		onKilled            int
		maxUtilization      float64
	}{
		{12, 3, 3, 7, 0.5625},
		{18, 9, 4, 7, 0.5625},
		{24, 15, 5, 7, 0.75},
	} {
		res, err := runClusterLoad(tc.crowd)
		if err != nil {
			t.Fatalf("crowd %d: %v", tc.crowd, err)
		}
		if err := res.check(); err != nil {
			t.Errorf("crowd %d: %v: %+v", tc.crowd, err, res)
		}
		if res.Redirects != tc.redirects || res.RedirectsFollowed != tc.redirects {
			t.Errorf("crowd %d: redirects issued/followed = %d/%d, want %d each",
				tc.crowd, res.Redirects, res.RedirectsFollowed, tc.redirects)
		}
		if res.Handoffs != tc.handoffs || res.HandoffAccepts != tc.handoffs || res.HandoffsCompleted != tc.handoffs {
			t.Errorf("crowd %d: handoffs issued/accepted/completed = %d/%d/%d, want %d each",
				tc.crowd, res.Handoffs, res.HandoffAccepts, res.HandoffsCompleted, tc.handoffs)
		}
		if res.SessionsOnKilled != tc.onKilled || res.SessionsRecovered != tc.onKilled || res.SessionsLost != 0 {
			t.Errorf("crowd %d: on killed/recovered/lost = %d/%d/%d, want %d/%d/0",
				tc.crowd, res.SessionsOnKilled, res.SessionsRecovered, res.SessionsLost, tc.onKilled, tc.onKilled)
		}
		if res.MaxUtilization != tc.maxUtilization {
			t.Errorf("crowd %d: max utilization = %v, want %v", tc.crowd, res.MaxUtilization, tc.maxUtilization)
		}
	}
}

// TestRunClusterLoadDeterministic pins replay: the same seed must yield the
// same counters, or the table E13 prints is not reproducible.
func TestRunClusterLoadDeterministic(t *testing.T) {
	a, err := runClusterLoad(18)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runClusterLoad(18)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("two runs with the same seed diverged:\n  %+v\n  %+v", a, b)
	}
}
