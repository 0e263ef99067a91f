package core

import (
	"reflect"
	"testing"

	"teco/internal/conformance/check"
	"teco/internal/modelzoo"
)

// TestRunTieredZeroBudgetMatchesStatic: with no migration budget every
// policy freezes the first-fit placement, so heat, lru and static runs are
// bit-identical.
func TestRunTieredZeroBudgetMatchesStatic(t *testing.T) {
	check.Enable(t)
	m := modelzoo.GPT2()
	dram := 3 * m.ParamBytes() / 4
	base, baseTrace, err := MustEngine(Config{DBA: true}).RunTiered(m, 4, TierConfig{
		DRAMBytes: dram, OptSlots: true, Policy: "static", MigrateBudget: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"heat", "lru", "static"} {
		got, trace, err := MustEngine(Config{DBA: true}).RunTiered(m, 4, TierConfig{
			DRAMBytes: dram, OptSlots: true, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("policy %q with zero budget diverged from static:\n got %+v\nwant %+v",
				policy, got, base)
		}
		if !reflect.DeepEqual(trace.Fast, baseTrace.Fast) {
			t.Fatalf("policy %q moved placement with zero budget", policy)
		}
	}
}

// TestRunTieredMigrationWins: under capacity pressure with a budget, the
// heat policy beats the static placement — the tentpole's reason to exist —
// and the migration accounting balances.
func TestRunTieredMigrationWins(t *testing.T) {
	check.Enable(t)
	m := modelzoo.GPT2()
	dram := 3 * m.ParamBytes() / 4 // 25% of the tiered total
	tc := TierConfig{DRAMBytes: dram, OptSlots: true, MigrateBudget: 512 << 20}

	static := tc
	static.Policy = "static"
	base, _, err := MustEngine(Config{DBA: true}).RunTiered(m, 4, static)
	if err != nil {
		t.Fatal(err)
	}
	got, trace, err := MustEngine(Config{DBA: true}).RunTiered(m, 4, tc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total() >= base.Total() {
		t.Fatalf("heat policy no faster than static: %v vs %v", got.Total(), base.Total())
	}
	if got.Tier.Migrations == 0 || got.Tier.PromotedBytes == 0 {
		t.Fatalf("win without migrations: %+v", got.Tier)
	}
	var resident int64
	for i, fast := range trace.Fast {
		if fast {
			resident += trace.Sizes[i]
		}
	}
	if resident > trace.FastBytes {
		t.Fatalf("final placement overfills the fast tier: %d > %d", resident, trace.FastBytes)
	}
}

// TestRunTieredPerLineMatchesCoalesced: the tiering plane is bit-identical
// on the per-line reference path and the flow-coalescing fast path.
func TestRunTieredPerLineMatchesCoalesced(t *testing.T) {
	check.Enable(t)
	m := modelzoo.GPT2()
	m.Layers = 4
	tc := TierConfig{DRAMBytes: 3 * m.ParamBytes() / 2, OptSlots: true,
		MigrateBudget: 512 << 20}
	fast, _, err := MustEngine(Config{DBA: true}).RunTiered(m, 2, tc)
	if err != nil {
		t.Fatal(err)
	}
	slow, _, err := MustEngine(Config{DBA: true, PerLine: true}).RunTiered(m, 2, tc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("per-line tiered run diverged:\n got %+v\nwant %+v", slow, fast)
	}
}

// TestRunTieredErrors: invalid configs fail fast with errors, not panics.
func TestRunTieredErrors(t *testing.T) {
	m := modelzoo.GPT2()
	e := MustEngine(Config{DBA: true})
	for name, tc := range map[string]TierConfig{
		"negative-layers": {Layers: -1},
		"negative-dram":   {DRAMBytes: -1},
		"negative-budget": {MigrateBudget: -1},
		"negative-steps":  {Steps: -1},
		"bad-policy":      {Policy: "mru"},
		"tier-too-small":  {DRAMBytes: 1},
	} {
		if _, _, err := e.RunTiered(m, 4, tc); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if _, _, err := MustEngine(Config{Invalidation: true}).RunTiered(m, 4, TierConfig{}); err == nil {
		t.Fatal("invalidation protocol accepted")
	}
}

// TestRunTieredDeterministic: identical configs give identical results and
// traces.
func TestRunTieredDeterministic(t *testing.T) {
	m := modelzoo.GPT2()
	tc := TierConfig{DRAMBytes: 3 * m.ParamBytes() / 4, OptSlots: true,
		MigrateBudget: 512 << 20}
	a, ta, err := MustEngine(Config{DBA: true}).RunTiered(m, 4, tc)
	if err != nil {
		t.Fatal(err)
	}
	b, tb, err := MustEngine(Config{DBA: true}).RunTiered(m, 4, tc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ta, tb) {
		t.Fatal("tiered run not deterministic")
	}
}
