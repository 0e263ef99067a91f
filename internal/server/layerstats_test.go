package server

import (
	"encoding/json"
	"testing"

	"teco/internal/realtrain"
	"teco/internal/staging"
)

// TestStatzExposesLayerCounters: /statz surfaces the process-wide per-layer
// offload telemetry — a scheduled training run moves the residency
// counters, and the JSON names are the documented ones. The counters are
// process-global and monotone, so the test asserts deltas.
func TestStatzExposesLayerCounters(t *testing.T) {
	s := newTestServer(t, nil)
	before := statz(t, s.Handler()).Layers

	// Drive a real stack training run under a tight cache with prefetch;
	// its residency events land in the telemetry /statz snapshots.
	tr, err := realtrain.NewTrainer(realtrain.Config{
		Arch: "stack", Layers: 3,
		Steps: 6, PreSteps: 6, Seed: 9,
		SchedCacheWords: 140000, SchedPrefetch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for !tr.Done() {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}

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
	raw, err := json.Marshal(Stats{Layers: staging.LayerCounters{}})
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]json.RawMessage
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	var lb map[string]json.RawMessage
	if err := json.Unmarshal(tree["layers"], &lb); err != nil {
		t.Fatalf("no layers block in /statz: %s", raw)
	}
	for _, name := range []string{"demand_misses", "hits", "prefetch_hits",
		"prefetch_issued", "evictions", "evicted_bytes", "loaded_bytes",
		"writeback_bytes", "sched_steps"} {
		if _, ok := lb[name]; !ok {
			t.Fatalf("layer counter %q missing from /statz", name)
		}
	}
}
