package experiments

import (
	"context"
	"testing"
)

// TestFingerprintSchedulingInvariant: knobs proven not to change any output
// byte must not change the key — otherwise the cache would recompute (and
// the coalescer would split) identical work.
func TestFingerprintSchedulingInvariant(t *testing.T) {
	base := Options{Seed: 42, BER: 1e-6, RetryBudget: 4, Degrade: true}
	want := base.Fingerprint("faults")
	variants := []Options{
		{Seed: 42, BER: 1e-6, RetryBudget: 4, Degrade: true, Workers: 8},
		{Seed: 42, BER: 1e-6, RetryBudget: 4, Degrade: true, NoMemo: true},
		{Seed: 42, BER: 1e-6, RetryBudget: 4, Degrade: true, CkptDir: "/tmp/elsewhere"},
		{Seed: 42, BER: 1e-6, RetryBudget: 4, Degrade: true, Ctx: context.Background()},
	}
	for i, v := range variants {
		if got := v.Fingerprint("faults"); got != want {
			t.Fatalf("variant %d: fingerprint %016x != base %016x — scheduling knob leaked into the key", i, got, want)
		}
	}
}

// TestFingerprintResultSensitivity: anything that can change a table cell
// must change the key.
func TestFingerprintResultSensitivity(t *testing.T) {
	base := Options{Seed: 42}
	seen := map[uint64]string{base.Fingerprint("faults"): "base"}
	distinct := map[string]Options{
		"seed":          {Seed: 43},
		"ber":           {Seed: 42, BER: 1e-5},
		"retry-budget":  {Seed: 42, RetryBudget: 2},
		"degrade":       {Seed: 42, Degrade: true},
		"ckpt-interval": {Seed: 42, CkptInterval: 25},
		"crash-at":      {Seed: 42, CrashAt: 10},
		"tier-policy":   {Seed: 42, TierPolicy: "lru"},
		"tier-dram":     {Seed: 42, TierDRAMPct: 25},
		"tier-budget":   {Seed: 42, TierMigrateBudget: 64},
	}
	for name, opt := range distinct {
		fp := opt.Fingerprint("faults")
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%s collides with %s: %016x", name, prev, fp)
		}
		seen[fp] = name
	}
	if base.Fingerprint("faults") == base.Fingerprint("recovery") {
		t.Fatal("different experiment ids share a fingerprint")
	}
}

// TestGridCancellation: a cancelled option context stops the sweep pool and
// grid returns stable zero values instead of partially-written storage.
func TestGridCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := grid(Options{Workers: 4, Ctx: ctx}, 100, func(i int) int { return i + 1 })
	if len(out) != 100 {
		t.Fatalf("grid returned %d values, want 100 zero values", len(out))
	}
	for i, v := range out {
		if v != 0 {
			t.Fatalf("out[%d] = %d, want 0 (cancelled before dispatch)", i, v)
		}
	}
	// And an un-cancelled context runs normally.
	out = grid(Options{Workers: 4, Ctx: context.Background()}, 10, func(i int) int { return i + 1 })
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("clean grid: out[%d] = %d", i, v)
		}
	}
}
