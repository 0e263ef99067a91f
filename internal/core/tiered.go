package core

import (
	"teco/internal/conformance/check"
	"teco/internal/modelzoo"
	"teco/internal/phases"
	"teco/internal/sim"
	"teco/internal/tiering"
)

// Heterogeneous-memory tiering for the timing engine — the timing half of
// the controller whose functional half lives in realtrain (both share
// tiering.Controller over staging.Residency, so slot placement has one
// definition on both sides of the house equality).
//
// RunTiered runs Steps ordinary TECO steps (compute + coherence planes,
// untouched) and walks the far-tier plane (fartier.go) on top: host-side
// model state lives in two tiers — local DDR4 (fast) and DRAM behind a
// CXL.mem expander (far). Each layer contributes a parameter slot
// (touched by forward, backward and the update pass) and, in OptSlots
// mode, an optimizer-state slot of twice the bytes (FP32 ADAM moments m+v)
// touched only by the update — a ~6× per-byte heat-density skew that makes
// placement matter. A far-tier touch streams the slot over the CXL link and
// exposes its latency in the breakdown (forward/backward parameter touches
// extend Prm, update-pass touches extend Adam); a fast-tier touch costs
// nothing extra (local DDR is already priced inside the compute phases).
// Migrations
// planned from the recorded heat are pushed on the same links at step
// start, so they queue ahead of — compete with — the step's own demand
// traffic, bounded per step by the migration budget.
//
// When every slot fits fast (DRAMBytes 0) the plane moves no bytes and adds
// no time: RunTiered degrades to a sum of plain Steps bit-identically, with
// only the TierStats hit counters recording that the walk happened
// (asserted by the degeneracy table in degenerate_test.go). A zero budget
// likewise freezes the initial placement regardless of policy.

// DefaultTierSteps is the step count RunTiered aggregates when
// TierConfig.Steps is zero: enough for heat to separate and migration to
// converge, small enough to keep the sweeps fast.
const DefaultTierSteps = 4

// TierConfig parameterizes one tiered run.
type TierConfig struct {
	// Layers overrides the model's layer count (0 keeps the model's own).
	Layers int
	// DRAMBytes is the fast-tier capacity; 0 means the whole model fits
	// fast (the all-resident baseline). A bounded capacity must hold the
	// largest single slot.
	DRAMBytes int64
	// Policy is the placement rank: "" or "heat", "lru", "static".
	Policy string
	// MigrateBudget is the per-step migration byte budget — the admission
	// throttle; 0 disables migration (static first-fit placement).
	MigrateBudget int64
	// Steps is the number of training steps to aggregate (0 =
	// DefaultTierSteps).
	Steps int
	// OptSlots schedules optimizer-state slots (2× parameter bytes, the
	// FP32 m+v moments) separately from parameters.
	OptSlots bool
}

// TierTrace is the recorded access trace and final placement of a tiered
// run — the input the oracle placement and the policy ablation's cost
// accounting consume.
type TierTrace struct {
	Sizes     []int64
	Heat      []int64
	Fast      []bool
	FastBytes int64
}

// addStep accumulates one step's result into a run aggregate: every
// additive field sums, Degraded ORs.
func addStep(a, s phases.StepResult) phases.StepResult {
	a.Variant = s.Variant
	a.Fwd += s.Fwd
	a.Bwd += s.Bwd
	a.Grad += s.Grad
	a.Clip += s.Clip
	a.Adam += s.Adam
	a.Prm += s.Prm
	a.ParamLinkBytes += s.ParamLinkBytes
	a.GradLinkBytes += s.GradLinkBytes
	a.Fault.Retries += s.Fault.Retries
	a.Fault.ReplayedBytes += s.Fault.ReplayedBytes
	a.Fault.Poisoned += s.Fault.Poisoned
	a.Fault.Recovered += s.Fault.Recovered
	a.Fault.Stalls += s.Fault.Stalls
	a.Fault.StallTime += s.Fault.StallTime
	a.Fault.Exposed += s.Fault.Exposed
	a.Fault.Degraded = a.Fault.Degraded || s.Fault.Degraded
	return a
}

// RunTiered simulates tc.Steps training steps under heterogeneous-memory
// tiering and returns the aggregated result plus the recorded trace.
func (e *Engine) RunTiered(m modelzoo.Model, batch int, tc TierConfig) (phases.StepResult, TierTrace, error) {
	m, err := e.planeModel(m, tc, tc.Layers, 0, tc.DRAMBytes, tc.MigrateBudget, int64(tc.Steps))
	if err != nil {
		return phases.StepResult{}, TierTrace{}, err
	}
	policy, err := tiering.ParsePolicy(tc.Policy)
	if err != nil {
		return phases.StepResult{}, TierTrace{}, err
	}
	steps := tc.Steps
	if steps == 0 {
		steps = DefaultTierSteps
	}
	sizes := SlotLayout(m, tc.OptSlots)
	ctl, err := tiering.New(tiering.Config{
		Sizes:       sizes,
		FastBytes:   tc.DRAMBytes,
		Policy:      policy,
		BudgetBytes: tc.MigrateBudget,
	})
	if err != nil {
		return phases.StepResult{}, TierTrace{}, err
	}
	p := e.newFarTier(sizes)
	st := phases.TierStats{Slots: int64(len(sizes)), FastBytes: ctl.Capacity()}

	pslot := func(k int) int {
		if tc.OptSlots {
			return 2 * k
		}
		return k
	}
	// touch is one demand access: free on a settled fast hit, the full
	// stream time on a far access, and only the residual wait when a
	// still-arriving promotion races the access.
	touch := func(k int, t sim.Time) sim.Time {
		fast := ctl.Touch(k)
		stall, _ := p.demand(k, fast, t)
		if fast {
			st.FastHits++
		} else {
			st.FarAccesses++
			st.FarFetchBytes += sizes[k]
		}
		return stall
	}

	var agg phases.StepResult
	var cursor sim.Time
	n := m.Layers
	for s := 0; s < steps; s++ {
		// Compute + coherence planes: the ordinary TECO step, untouched.
		out := e.Step(m, batch)

		// Migrations planned from the heat recorded so far, excluding the
		// slot of the layer about to execute, priced at step start:
		// promotions stream far→fast ahead of the step's demand fetches,
		// competing for the same bandwidth, and demotions stream fast→far
		// on the writeback link, off the critical path (the fast-tier copy
		// is authoritative until the stream fences).
		for _, mg := range ctl.PlanStep(pslot(0)) {
			if mg.Promote {
				p.issue(mg.Slot, cursor)
				st.PromotedBytes += mg.Bytes
			} else {
				p.writeback(mg.Slot, cursor)
				st.DemotedBytes += mg.Bytes
			}
			st.Migrations++
		}

		// Forward and backward walks touch each layer's parameter slot over
		// its telescoped share of the compute time; the update pass then
		// reads/writes master parameters and, in OptSlots mode, the ADAM
		// moments over the clip+ADAM window.
		var farStall, adamStall sim.Time
		fwdBwd := func(k int, t sim.Time) { farStall += touch(pslot(k), t) }
		stepStart := cursor
		cursor = walk(cursor, out.Fwd, n, false, fwdBwd)
		cursor = walk(cursor, out.Bwd, n, true, fwdBwd)
		walk(cursor+out.Grad, out.Clip+out.Adam, n, false, func(k int, t sim.Time) {
			adamStall += touch(pslot(k), t)
			if tc.OptSlots {
				adamStall += touch(2*k+1, t)
			}
		})

		out.Prm += farStall
		out.Adam += adamStall
		st.FarStall += farStall
		st.AdamStall += adamStall
		st.Steps++
		// The next step starts after this one's full critical path.
		cursor = stepStart + out.Total()

		if check.Enabled() {
			check.Check(out.Check, ctl.CheckInvariants)
		}
		agg = addStep(agg, out)
	}

	cs := ctl.Stats()
	st.ResidentBytes = cs.ResidentBytes
	st.Deferred = cs.Deferred
	agg.Tier = st

	trace := TierTrace{
		Sizes:     sizes,
		Heat:      ctl.Heat(),
		Fast:      ctl.Placement(),
		FastBytes: ctl.Capacity(),
	}
	if check.Enabled() {
		check.Check(agg.Check, ctl.CheckInvariants)
	}
	return agg, trace, nil
}
