package experiments

import "testing"

// TestRunClusterLoadInvariants runs the full seeded harness scenario — flash
// crowd, watermark redirects, cross-server handoffs, mid-lesson shard kill —
// and holds the result to the gates BENCH_cluster.json is held to: redirects
// actually spread the crowd, handoffs complete with a measurable latency, and
// not a single session is lost to the kill.
func TestRunClusterLoadInvariants(t *testing.T) {
	res, err := runClusterLoad(18)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.check(); err != nil {
		t.Errorf("%v: %+v", err, res)
	}
}

// TestRunClusterLoadDeterministic pins replay: the same seed must yield the
// same counters, or `make bench-cluster` is not reproducible.
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
