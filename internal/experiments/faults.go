package experiments

import (
	"fmt"
	"strconv"

	"teco/internal/core"
	"teco/internal/cxl"
	"teco/internal/modelzoo"
	"teco/internal/phases"
)

// faultSweepBERs returns the swept error rates: the default grid spans the
// retry-dominated regime up to past the DBA degradation crossover; an
// explicit BER centres a decade around the requested value. Grid points
// scaled out of the modelable range [0,1) are dropped.
func faultSweepBERs(opt Options) []float64 {
	grid := []float64{0, 1e-7, 1e-6, 1e-5, 1e-4, 5e-4}
	if opt.BER > 0 {
		grid = []float64{0, opt.BER / 10, opt.BER, opt.BER * 10}
	}
	out := grid[:0]
	for _, b := range grid {
		if b < 1 {
			out = append(out, b)
		}
	}
	return out
}

// FaultSweep is the BER x dirty_bytes robustness grid (Bert-large-cased,
// batch 4): per cell, the retry/replay volume, the exposed retry latency,
// the step-time inflation over the fault-free link, and whether the
// graceful-degradation policy abandoned aggregation for full-line
// transfers.
func FaultSweep(opt Options) *Table {
	t := &Table{
		ID:    "faults",
		Title: "Link-fault sweep: retry/replay cost and DBA degradation (Bert-large-cased, batch 4)",
		Header: []string{"BER", "dirty_bytes", "Retries", "Replayed", "Poisoned",
			"Exposed retry", "Total", "vs clean", "Policy"},
	}
	m := modelzoo.BertLargeCased()
	bw := modelzoo.CXLLinkBandwidth()
	dirties := []int{1, 2, 4}
	type cell struct{ ber, db int }
	var cells []cell
	bers := faultSweepBERs(opt)
	for bi := range bers {
		for di := range dirties {
			cells = append(cells, cell{bi, di})
		}
	}
	type measured struct {
		ber      float64
		db       int
		r        phases.StepResult
		degraded bool
	}
	// Every cell gets a fresh engine (engines carry fault-RNG state), so the
	// grid points are independent and run concurrently; the clean-baseline
	// ratio needs every cell, so it is derived after the join.
	results, err := gridErr(opt, len(cells), func(i int) (measured, error) {
		ber, db := bers[cells[i].ber], dirties[cells[i].db]
		e, err := core.NewEngine(core.Config{
			DBA:        true,
			DirtyBytes: db,
			Degrade:    opt.Degrade,
			Faults: cxl.FaultConfig{
				Seed:        opt.Seed,
				BER:         ber,
				RetryBudget: opt.RetryBudget,
			},
		})
		if err != nil {
			return measured{}, err
		}
		r := e.Step(m, 4)
		return measured{ber: ber, db: db, r: r, degraded: r.Fault.Degraded}, nil
	})
	if err != nil {
		t.Note("invalid fault config: %v", err)
		return t
	}
	clean := make(map[int]float64)
	for _, res := range results {
		if res.ber == 0 {
			clean[res.db] = float64(res.r.Total())
		}
	}
	for _, res := range results {
		policy := "DBA"
		if res.degraded {
			policy = "full-line (degraded)"
		}
		t.AddRow(
			fmt.Sprintf("%.0e", res.ber),
			fmt.Sprint(res.db),
			fmt.Sprint(res.r.Fault.Retries),
			mb(res.r.Fault.ReplayedBytes),
			fmt.Sprint(res.r.Fault.Poisoned),
			ms(res.r.Fault.Exposed.Milliseconds()),
			ms(res.r.Total().Milliseconds()),
			f2(float64(res.r.Total())/clean[res.db])+"x",
			policy,
		)
	}
	cross := core.DegradationCrossoverBER(cxl.FaultConfig{BER: 1e-6, RetryBudget: opt.RetryBudget}, 2, bw)
	t.Note("aggregated payloads become uneconomical (every retried DBA packet re-pays the merge-header round trip) above BER ~%.1e for dirty_bytes=2; pass -degrade to let the policy fall back to full lines", cross)
	return t
}

// mb formats a byte count as mebibytes.
func mb(v int64) string { return strconv.FormatFloat(float64(v)/(1<<20), 'f', 1, 64) + "MB" }
