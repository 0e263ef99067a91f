package server

import (
	"encoding/json"
	"testing"

	"teco/internal/realtrain"
	"teco/internal/tiering"
)

// TestStatzExposesTierCounters: /statz surfaces the process-wide
// heterogeneous-tiering telemetry — a training run under a bounded fast
// tier with a migration budget moves the placement counters, and the JSON
// names are the documented ones. The counters are process-global and
// monotone, so the test asserts deltas.
func TestStatzExposesTierCounters(t *testing.T) {
	s := newTestServer(t, nil)
	before := statz(t, s.Handler()).Tiering

	// Drive a real stack training run under a bounded fast tier (75%: the
	// tier must still hold the largest optimizer-state slot) with a generous
	// migration budget; its placement events land in the telemetry /statz
	// snapshots. The recency policy chases the last-touched slot — the far
	// optimizer state, touched at the tail of every update pass — so
	// migrations are guaranteed to flow.
	tr, err := realtrain.NewTrainer(realtrain.Config{
		Arch: "stack", Layers: 3,
		Steps: 6, PreSteps: 6, Seed: 9,
		TierDRAMPct: 75, TierMigrateWords: 2_000_000, TierPolicy: "lru",
	})
	if err != nil {
		t.Fatal(err)
	}
	for !tr.Done() {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}

	after := statz(t, s.Handler()).Tiering
	if after.PlanSteps <= before.PlanSteps || after.FastHits <= before.FastHits {
		t.Fatalf("tiering counters never moved: before %+v after %+v", before, after)
	}
	if after.FarAccesses <= before.FarAccesses {
		t.Fatalf("far-access counter never moved: before %+v after %+v", before, after)
	}
	if after.Migrations <= before.Migrations || after.PromotedBytes <= before.PromotedBytes {
		t.Fatalf("migration counters never moved: before %+v after %+v", before, after)
	}

	// The wire names are part of the operator interface; pin them.
	raw, err := json.Marshal(Stats{Tiering: tiering.TierCounters{}})
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]json.RawMessage
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	var tb map[string]json.RawMessage
	if err := json.Unmarshal(tree["tiering"], &tb); err != nil {
		t.Fatalf("no tiering block in /statz: %s", raw)
	}
	for _, name := range []string{"fast_hits", "far_accesses", "plan_steps",
		"migrations", "promoted_bytes", "demoted_bytes", "deferred"} {
		if _, ok := tb[name]; !ok {
			t.Fatalf("tiering counter %q missing from /statz", name)
		}
	}
}
