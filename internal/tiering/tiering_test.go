package tiering

import (
	"testing"

	"teco/internal/modelzoo"
)

func mustController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func checkOK(t *testing.T, c *Controller) {
	t.Helper()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFirstFitInitialPlacement: New fills the fast tier in slot order,
// skipping slots that no longer fit, and everything else starts far.
func TestFirstFitInitialPlacement(t *testing.T) {
	c := mustController(t, Config{Sizes: []int64{40, 80, 40, 80}, FastBytes: 130})
	want := []bool{true, true, false, false} // 40+80=120, 10 bytes free fit nothing
	got := c.Placement()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("placement %v, want %v", got, want)
		}
	}
	if c.FastResident(0) != true || c.FastResident(3) != false {
		t.Fatal("FastResident disagrees with Placement")
	}
	checkOK(t, c)
}

// TestFirstFitSkipsAndBackfills: a slot too big for the remaining space is
// skipped but a later smaller slot still lands fast.
func TestFirstFitSkipsAndBackfills(t *testing.T) {
	c := mustController(t, Config{Sizes: []int64{60, 80, 30}, FastBytes: 100})
	got := c.Placement()
	want := []bool{true, false, true} // 60, skip 80, 30 → 90/100
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("placement %v, want %v", got, want)
		}
	}
	checkOK(t, c)
}

// TestTouchAccounting: fast touches count as hits, far touches as far
// accesses, and neither changes placement.
func TestTouchAccounting(t *testing.T) {
	c := mustController(t, Config{Sizes: []int64{50, 50, 50}, FastBytes: 100})
	if !c.Touch(0) || !c.Touch(1) {
		t.Fatal("fast slots missed")
	}
	if c.Touch(2) {
		t.Fatal("far slot hit")
	}
	st := c.Stats()
	if st.FastHits != 2 || st.FarAccesses != 1 {
		t.Fatalf("stats %+v", st)
	}
	if !c.FastResident(0) || c.FastResident(2) {
		t.Fatal("a demand access changed placement")
	}
	checkOK(t, c)
}

// TestZeroBudgetIsStatic: with a zero migration budget, PlanStep never
// moves anything regardless of policy or heat skew.
func TestZeroBudgetIsStatic(t *testing.T) {
	for _, p := range []Policy{Heat, Recency} {
		c := mustController(t, Config{Sizes: []int64{50, 50}, FastBytes: 50, Policy: p})
		for i := 0; i < 10; i++ {
			c.Touch(1) // far slot is much hotter
		}
		if ms := c.PlanStep(-1); ms != nil {
			t.Fatalf("policy %v migrated %v with zero budget", p, ms)
		}
		if got := c.Placement(); !got[0] || got[1] {
			t.Fatalf("placement changed: %v", got)
		}
		checkOK(t, c)
	}
}

// TestStaticPolicyNeverMigrates: the static policy freezes the first-fit
// placement even with an unbounded budget.
func TestStaticPolicyNeverMigrates(t *testing.T) {
	c := mustController(t, Config{Sizes: []int64{50, 50}, FastBytes: 50,
		Policy: Static, BudgetBytes: 1 << 40})
	for i := 0; i < 10; i++ {
		c.Touch(1)
	}
	if ms := c.PlanStep(-1); ms != nil {
		t.Fatalf("static policy migrated %v", ms)
	}
	checkOK(t, c)
}

// TestMigrationPromotesHotOverCold: a strictly hotter far slot displaces
// the coldest fast victim, the moves balance byte-for-byte, and the
// invariants hold throughout.
func TestMigrationPromotesHotOverCold(t *testing.T) {
	c := mustController(t, Config{Sizes: []int64{50, 50, 50}, FastBytes: 100,
		Policy: Heat, BudgetBytes: 200})
	// Heat: slot0=2, slot1=1, slot2=3 (far, hottest).
	c.Touch(0)
	c.Touch(0)
	c.Touch(1)
	c.Touch(2)
	c.Touch(2)
	c.Touch(2)
	ms := c.PlanStep(-1)
	if len(ms) != 2 {
		t.Fatalf("migrations %v, want demote+promote pair", ms)
	}
	if ms[0].Promote || ms[0].Slot != 1 {
		t.Fatalf("first move %+v, want demotion of coldest slot 1", ms[0])
	}
	if !ms[1].Promote || ms[1].Slot != 2 {
		t.Fatalf("second move %+v, want promotion of slot 2", ms[1])
	}
	got := c.Placement()
	if !got[0] || got[1] || !got[2] {
		t.Fatalf("placement %v", got)
	}
	st := c.Stats()
	if st.PromotedBytes != 50 || st.DemotedBytes != 50 || st.Migrations != 2 {
		t.Fatalf("stats %+v", st)
	}
	checkOK(t, c)
}

// TestEqualHeatNeverChurns: equal rank is not strictly colder, so uniform
// heat produces no migrations — the anti-thrash rule.
func TestEqualHeatNeverChurns(t *testing.T) {
	c := mustController(t, Config{Sizes: []int64{50, 50, 50}, FastBytes: 100,
		Policy: Heat, BudgetBytes: 1 << 40})
	for step := 0; step < 5; step++ {
		for i := 0; i < 3; i++ {
			c.Touch(i)
		}
		if ms := c.PlanStep(-1); ms != nil {
			t.Fatalf("uniform heat churned: %v", ms)
		}
	}
	checkOK(t, c)
}

// TestExecutingSlotExcluded: the executing slot is neither promoted nor
// demoted, even when it is the hottest candidate or the coldest victim.
func TestExecutingSlotExcluded(t *testing.T) {
	// Hottest far slot is executing: nothing to promote.
	c := mustController(t, Config{Sizes: []int64{50, 50}, FastBytes: 50,
		Policy: Heat, BudgetBytes: 1 << 40})
	for i := 0; i < 5; i++ {
		c.Touch(1)
	}
	if ms := c.PlanStep(1); ms != nil {
		t.Fatalf("promoted the executing slot: %v", ms)
	}
	// Only victim is executing: the promotion has no room and stays put.
	if ms := c.PlanStep(0); ms != nil {
		t.Fatalf("demoted the executing slot: %v", ms)
	}
	// Same heat skew with nothing executing: the move happens, proving the
	// exclusions above were the only blockers.
	if ms := c.PlanStep(-1); len(ms) != 2 {
		t.Fatalf("expected demote+promote once slot 1 stopped executing, got %v", ms)
	}
	checkOK(t, c)
}

// TestBudgetThrottleDefers: a budget smaller than the cheapest move defers
// the promotion and counts it, leaving placement untouched.
func TestBudgetThrottleDefers(t *testing.T) {
	c := mustController(t, Config{Sizes: []int64{50, 50}, FastBytes: 50,
		Policy: Heat, BudgetBytes: 60}) // move costs 50 demote + 50 promote = 100
	for i := 0; i < 5; i++ {
		c.Touch(1)
	}
	if ms := c.PlanStep(-1); ms != nil {
		t.Fatalf("migrated past the budget: %v", ms)
	}
	st := c.Stats()
	if st.Deferred != 1 || st.Migrations != 0 {
		t.Fatalf("stats %+v, want one deferral and no migrations", st)
	}
	if got := c.Placement(); !got[0] || got[1] {
		t.Fatalf("placement changed under a deferral: %v", got)
	}
	checkOK(t, c)
}

// TestPromotionIntoFreeSpace: when the fast tier has room, a promotion
// needs no victims and costs only its own bytes.
func TestPromotionIntoFreeSpace(t *testing.T) {
	c := mustController(t, Config{Sizes: []int64{60, 80, 30}, FastBytes: 100,
		Policy: Heat, BudgetBytes: 1 << 40})
	// Initial: 60+30 fast (first-fit skip), 80 far, 10 free. Make the far
	// slot hottest, demote both fast slots to fit it.
	for i := 0; i < 5; i++ {
		c.Touch(1)
	}
	ms := c.PlanStep(-1)
	if len(ms) != 3 {
		t.Fatalf("migrations %v, want two demotions and one promotion", ms)
	}
	st := c.Stats()
	if st.PromotedBytes != 80 || st.DemotedBytes != 90 {
		t.Fatalf("stats %+v", st)
	}
	checkOK(t, c)
}

// TestParsePolicy: the flag spellings and the error path.
func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{
		"": Heat, "heat": Heat, "lru": Recency, "static": Static,
	} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	for _, bad := range []string{"mru", "recency"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Fatalf("policy %q accepted", bad)
		}
	}
	if Heat.String() != "heat" || Recency.String() != "lru" || Static.String() != "static" {
		t.Fatal("policy spellings drifted")
	}
}

// TestNewRejectsBadConfig: negative budgets and a fast tier smaller than
// the largest slot are construction errors, not latent panics.
func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Sizes: []int64{10}, BudgetBytes: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := New(Config{Sizes: []int64{100, 10}, FastBytes: 50}); err == nil {
		t.Fatal("capacity below largest slot accepted")
	}
}

// TestUnboundedCapacityAllFast: FastBytes <= 0 means everything fits fast —
// the degenerate all-resident configuration the metamorphic suite pins
// against the untiered baseline.
func TestUnboundedCapacityAllFast(t *testing.T) {
	c := mustController(t, Config{Sizes: []int64{50, 50, 50}, Policy: Heat,
		BudgetBytes: 1 << 40})
	for i, fast := range c.Placement() {
		if !fast {
			t.Fatalf("slot %d not fast under unbounded capacity", i)
		}
	}
	if ms := c.PlanStep(-1); ms != nil {
		t.Fatalf("migrated with everything fast: %v", ms)
	}
	checkOK(t, c)
}

// TestCXLExpanderMatchesLinkModel: the far tier's sustained bandwidth is
// the repo's effective CXL link bandwidth — the cost model and the stream
// simulator must price the same wire.
func TestCXLExpanderMatchesLinkModel(t *testing.T) {
	cm := DefaultCostModel()
	if got, want := cm.Far.BytesPerSecond, modelzoo.CXLLinkBandwidth(); got != want {
		t.Fatalf("CXL expander bandwidth %g != link bandwidth %g", got, want)
	}
	if cm.Far.AccessLatency <= cm.Fast.AccessLatency {
		t.Fatal("far tier not slower than fast tier")
	}
	if cm.Fast.BytesPerSecond <= cm.Far.BytesPerSecond {
		t.Fatal("fast tier not faster than far tier")
	}
}
