package experiments

import (
	"fmt"

	"teco/internal/core"
	"teco/internal/modelzoo"
	"teco/internal/tiering"
)

// The tiering sweeps chart the heterogeneous-memory tiering controller
// (core.RunTiered): what capacity pressure on the fast DRAM tier costs when
// the model (parameters + optimizer state) no longer fits, how much online
// hot/cold migration claws back under a bounded per-step budget, and how
// close the online heat policy lands to an oracle placement computed from
// the recorded full trace. Both tables are pure integer-picosecond
// simulation, so the goldens pin them byte for byte at seed 42.

// tieringDRAMGrid returns the swept fast-tier sizes in percent of the
// tiered slot bytes (parameters + FP32 ADAM moments); an explicit
// Options.TierDRAMPct collapses the axis.
func tieringDRAMGrid(opt Options) []int {
	if opt.TierDRAMPct > 0 {
		return []int{opt.TierDRAMPct}
	}
	return []int{10, 25, 50, 100}
}

// tieringBudgetGrid returns the swept per-step migration budgets in MiB
// (0 = static placement); an explicit Options.TierMigrateBudget collapses
// the axis.
func tieringBudgetGrid(opt Options) []int {
	if opt.TierMigrateBudget > 0 {
		return []int{opt.TierMigrateBudget}
	}
	return []int{0, 64, 512}
}

// tieringPolicyBudget is the policy ablation's per-step migration budget in
// MiB (default 512: wide enough for a few slot moves per step, so policies
// actually differ).
func tieringPolicyBudget(opt Options) int {
	if opt.TierMigrateBudget > 0 {
		return opt.TierMigrateBudget
	}
	return 512
}

// tieringPolicyDRAMPct is the policy ablation's fast-tier size (default 25:
// deep capacity pressure — the regime where placement matters).
func tieringPolicyDRAMPct(opt Options) int {
	if opt.TierDRAMPct > 0 {
		return opt.TierDRAMPct
	}
	return 25
}

// TieringSweep is the capacity-pressure grid (GPT-2, batch 4): fast-tier
// size x migration budget, with parameter and optimizer-state slots
// scheduled separately. Per cell: the static-placement run, the migrating
// run under the heat policy, the win between them, and the placement churn
// behind it. Cells whose fast tier cannot hold the largest slot are
// structurally infeasible and render as "n/a".
func TieringSweep(opt Options) *Table {
	t := &Table{
		ID: "tiering",
		Title: "Heterogeneous memory tiering: DRAM size x migration budget " +
			"(GPT-2, batch 4, params + optimizer state, heat policy)",
		Header: []string{"DRAM", "Budget", "Static", "Tiered", "Win",
			"Far", "Migr", "Promoted", "Deferred"},
	}
	m := modelzoo.GPT2()
	slots := core.SlotLayout(m, true)
	total, largest := slots.Total(), slots.Largest()
	dramGrid := tieringDRAMGrid(opt)
	budgetGrid := tieringBudgetGrid(opt)
	policy := opt.TierPolicy
	rows := grid(opt, len(dramGrid)*len(budgetGrid), func(i int) []string {
		pct := dramGrid[i/len(budgetGrid)]
		budget := budgetGrid[i%len(budgetGrid)]
		label := fmt.Sprintf("%d%%", pct)
		blabel := fmt.Sprintf("%dMiB", budget)
		dram := total * int64(pct) / 100
		if pct < 100 && dram < largest {
			return []string{label, blabel, "n/a", "n/a", "n/a", "-", "-", "-", "-"}
		}
		e := core.MustEngine(core.Config{DBA: true})
		tc := core.TierConfig{DRAMBytes: dram, OptSlots: true, Policy: policy,
			MigrateBudget: int64(budget) << 20}
		if pct >= 100 {
			tc.DRAMBytes = 0 // everything fits: the all-fast baseline
		}
		static := tc
		static.Policy = "static"
		base, _, err := e.RunTiered(m, 4, static)
		if err != nil {
			return []string{label, blabel, "-", "-", "-", "-", "-", "-", err.Error()}
		}
		res, _, err := e.RunTiered(m, 4, tc)
		if err != nil {
			return []string{label, blabel, "-", "-", "-", "-", "-", "-", err.Error()}
		}
		return []string{
			label, blabel,
			ms(base.Total().Milliseconds()),
			ms(res.Total().Milliseconds()),
			f2(float64(base.Total())/float64(res.Total())) + "x",
			fmt.Sprint(res.Tier.FarAccesses),
			fmt.Sprint(res.Tier.Migrations),
			fmt.Sprintf("%dMB", res.Tier.PromotedBytes>>20),
			fmt.Sprint(res.Tier.Deferred),
		}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Note("migration promotes the hot parameter slots out of the CXL expander between steps, bounded by the per-step budget; the win column is the static/tiered step-time ratio, 1.00x when everything already fits fast or the budget is zero")
	return t
}

// TieringPolicySweep is the placement-policy ablation at fixed capacity
// pressure: each online policy's measured run plus its placement cost under
// the recorded trace, against the oracle placement computed from that same
// trace (greedy benefit-density fill — the clairvoyant reference). The
// "vs oracle" column is the policy/oracle placement-cost ratio the
// acceptance gap is recorded from.
func TieringPolicySweep(opt Options) *Table {
	pct := tieringPolicyDRAMPct(opt)
	budget := tieringPolicyBudget(opt)
	t := &Table{
		ID: "tiering-policy",
		Title: fmt.Sprintf("Tiering-policy ablation vs oracle placement "+
			"(GPT-2, batch 4, DRAM %d%%, budget %dMiB/step)", pct, budget),
		Header: []string{"Policy", "Total", "Prm", "Adam", "Far", "Migr",
			"Cost", "vs oracle"},
	}
	m := modelzoo.GPT2()
	dram := core.SlotLayout(m, true).Total() * int64(pct) / 100
	policies := []string{"static", "lru", "heat"}
	if opt.TierPolicy != "" {
		policies = []string{opt.TierPolicy}
	}
	cm := tiering.DefaultCostModel()
	type cell struct {
		row   []string
		cost  float64
		trace core.TierTrace
		err   error
	}
	cells := grid(opt, len(policies), func(i int) cell {
		e := core.MustEngine(core.Config{DBA: true})
		res, trace, err := e.RunTiered(m, 4, core.TierConfig{
			DRAMBytes: dram, OptSlots: true,
			Policy: policies[i], MigrateBudget: int64(budget) << 20,
		})
		if err != nil {
			return cell{err: err}
		}
		cost := cm.PlacementCost(trace.Heat, trace.Fast, trace.Sizes)
		return cell{
			row: []string{
				policies[i],
				ms(res.Total().Milliseconds()),
				ms(res.Prm.Milliseconds()),
				ms(res.Adam.Milliseconds()),
				fmt.Sprint(res.Tier.FarAccesses),
				fmt.Sprint(res.Tier.Migrations),
				ms(cost.Milliseconds()),
			},
			cost:  float64(cost),
			trace: trace,
		}
	})
	var oracleCost float64
	for _, c := range cells {
		if c.err == nil {
			// The access trace (heat) is placement-independent — every
			// policy walks the same slots — so any successful cell seeds
			// the oracle.
			oc := cm.PlacementCost(c.trace.Heat,
				cm.OraclePlacement(c.trace.Heat, c.trace.Sizes, c.trace.FastBytes),
				c.trace.Sizes)
			oracleCost = float64(oc)
			break
		}
	}
	for _, c := range cells {
		if c.err != nil {
			t.AddRow("-", "-", "-", "-", "-", "-", "-", c.err.Error())
			continue
		}
		gap := "-"
		if oracleCost > 0 {
			gap = f2(c.cost/oracleCost) + "x"
		}
		t.AddRow(append(c.row, gap)...)
	}
	t.Note("cost is the recorded trace priced by the DDR4/CXL-expander cost model under each policy's final placement; the oracle is the greedy benefit-density fill of the same trace — the gap column is what online placement leaves on the table")
	return t
}
