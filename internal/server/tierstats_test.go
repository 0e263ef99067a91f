package server

import (
	"testing"

	"teco/internal/tiering"
)

// TestStatzExposesTierCounters: a served tiering request under a bounded
// DRAM tier with a migration budget moves the process-wide
// heterogeneous-tiering counters /statz reports, and the JSON names are the
// documented ones. The counters are process-global and monotone, so the
// test asserts deltas.
func TestStatzExposesTierCounters(t *testing.T) {
	s := newTestServer(t, nil)
	before := statz(t, s.Handler()).Tiering
	// 25% DRAM with a 512 MiB budget: the sweep cell whose heat policy
	// migrates every step.
	mustRun(t, s.Handler(), "id=tiering&tier_dram_pct=25&tier_migrate_budget=512")
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
	names := wireNames(t, Stats{Tiering: tiering.TierCounters{}}, "tiering")
	for _, name := range []string{"fast_hits", "far_accesses", "plan_steps",
		"migrations", "promoted_bytes", "demoted_bytes", "deferred"} {
		if _, ok := names[name]; !ok {
			t.Fatalf("tiering counter %q missing from /statz", name)
		}
	}
}
