package server

import (
	"testing"

	"teco/internal/core"
)

// TestStatzExposesLayerCounters: a served layers request under a bounded
// cache with a prefetch window moves the process-wide per-layer offload
// counters /statz reports, and the JSON names are the documented ones.
// The counters are process-global and monotone, so the test asserts
// deltas.
func TestStatzExposesLayerCounters(t *testing.T) {
	s := newTestServer(t, nil)
	before := statz(t, s.Handler()).Layers
	mustRun(t, s.Handler(), "id=layers&layers=12&cache_pct=40&prefetch=1")
	after := statz(t, s.Handler()).Layers
	if after.SchedSteps <= before.SchedSteps || after.Hits <= before.Hits {
		t.Fatalf("scheduler counters never moved: before %+v after %+v", before, after)
	}
	if after.DemandMisses <= before.DemandMisses || after.Evictions <= before.Evictions {
		t.Fatalf("churn counters never moved: before %+v after %+v", before, after)
	}
	if after.PrefetchIssued <= before.PrefetchIssued {
		t.Fatalf("prefetch counter never moved: before %+v after %+v", before, after)
	}

	// The wire names are part of the operator interface; pin them.
	names := wireNames(t, Stats{Layers: core.LayerCounters{}}, "layers")
	for _, name := range []string{"demand_misses", "hits", "prefetch_hits",
		"prefetch_issued", "evictions", "evicted_bytes", "loaded_bytes",
		"writeback_bytes", "sched_steps"} {
		if _, ok := names[name]; !ok {
			t.Fatalf("layer counter %q missing from /statz", name)
		}
	}
}
