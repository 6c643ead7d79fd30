package logtmse

import "testing"

// quietRetries runs one cell with metrics attached and returns its final
// core.quiet_retries value: the NACK retries answered from the retry
// memo instead of a protocol walk.
func quietRetries(t *testing.T, workload, variant string, seed int64) (uint64, RunResult) {
	t.Helper()
	v, ok := VariantByName(variant)
	if !ok {
		t.Fatalf("unknown variant %q", variant)
	}
	reg := NewRegistry()
	r, err := RunOne(RunConfig{Workload: workload, Variant: v, Scale: testScale, Metrics: NewCoreMetrics(reg)}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return counterValue(t, reg, "core.quiet_retries"), r
}

// counterValue returns the named counter's value in reg's latest snapshot.
func counterValue(t *testing.T, reg *Registry, name string) uint64 {
	t.Helper()
	snaps := reg.Snapshots()
	for i, col := range reg.Header() {
		if col == name {
			return uint64(snaps[len(snaps)-1].Values[i-1]) // Values excludes the cycle column
		}
	}
	t.Fatalf("%s not registered", name)
	return 0
}

// TestQuietRetriesPinned pins the exact number of memo-answered retries
// on the two cell families where retry-aware execution pays. Result
// goldens cannot see the memo (it changes no simulated behavior), so a
// change that silently disables it — a new bypass, an over-eager epoch
// bump — would keep every golden and only lose speed; this test fails
// instead.
func TestQuietRetriesPinned(t *testing.T) {
	for _, c := range []struct {
		workload, variant string
		want              uint64
	}{
		{"Raytrace", "Perfect", 1389247},
		{"BerkeleyDB", "BS", 204951},
	} {
		got, r := quietRetries(t, c.workload, c.variant, 1)
		nacked := r.Stats.Stalls + r.Stats.NonTxRetries
		t.Logf("%s/%s: %d of %d NACKed accesses answered from the memo (%.1f%%)",
			c.workload, c.variant, got, nacked, 100*float64(got)/float64(nacked))
		if got != c.want {
			t.Errorf("%s/%s: core.quiet_retries = %d, want %d", c.workload, c.variant, got, c.want)
		}
	}
}
