package teco_test

import (
	"fmt"

	"teco"
)

// Classify a parameter update the way Figure 2 does.
func ExampleClassifyChange() {
	old := float32(1.0)
	tiny := float32(1.0000001) // mantissa-only drift
	flipped := float32(-1.0)   // sign change
	fmt.Println(teco.ClassifyChange(old, old))
	fmt.Println(teco.ClassifyChange(old, tiny))
	fmt.Println(teco.ClassifyChange(old, flipped))
	// Output:
	// unchanged
	// last-byte
	// other
}

// Simulate the headline comparison on Bert-large-cased at batch 4, and the
// §IV-A2 ablation: what stock invalidation-based CXL would cost.
func ExampleSimulate() {
	m, _ := teco.ModelByName("Bert-large-cased")
	base := teco.Simulate(teco.ZeroOffload, m, 4, teco.SimConfig{})
	red := teco.Simulate(teco.TECOReduction, m, 4, teco.SimConfig{})
	fmt.Printf("TECO-Reduction speedup: %.2fx\n", red.Speedup(base))
	fmt.Printf("DBA halves parameter volume: %v\n", red.ParamLinkBytes*2 == base.ParamLinkBytes)
	upd := teco.Simulate(teco.TECOCXL, m, 4, teco.SimConfig{})
	inv := teco.Simulate(teco.TECOInvalidation, m, 4, teco.SimConfig{})
	fmt.Printf("invalidation protocol: %.1f%% slower than the update extension\n",
		100*(float64(inv.Total())/float64(upd.Total())-1))
	// Output:
	// TECO-Reduction speedup: 1.66x
	// DBA halves parameter volume: true
	// invalidation protocol: 63.5% slower than the update extension
}

// Drive the full functional protocol stack for one update cycle under each
// protocol variant: the update protocol pushes every line at write time, DBA
// shrinks the payload, and stock MESI defers the data to on-demand fills.
func ExampleReplayUpdate() {
	old := teco.NewTensor("old", 32)
	upd := teco.NewTensor("new", 32)
	for i := 0; i < 32; i++ {
		old.Set(i, float32(i))
		upd.Set(i, float32(i)+1e-6)
	}
	for _, v := range []struct {
		name string
		cfg  teco.ReplayConfig
	}{
		{"DBA(2)", teco.ReplayConfig{DBA: true}},
		{"DBA(3)", teco.ReplayConfig{DBA: true, DirtyBytes: 3}},
		{"invalidation", teco.ReplayConfig{Invalidation: true}},
	} {
		dev, stats, _ := teco.ReplayUpdate(old, upd, v.cfg)
		exact := 0
		for i := 0; i < 32; i++ {
			if dev.At(i) == upd.At(i) {
				exact++
			}
		}
		fmt.Printf("%-12s lines=%d payload=%dB on-demand=%d snoop-entries=%d exact=%d/32\n",
			v.name, stats.Lines, stats.PayloadBytes, stats.OnDemandTransfers, stats.SnoopEntries, exact)
	}
	// Output:
	// DBA(2)       lines=2 payload=64B on-demand=0 snoop-entries=0 exact=31/32
	// DBA(3)       lines=2 payload=96B on-demand=0 snoop-entries=0 exact=31/32
	// invalidation lines=2 payload=128B on-demand=2 snoop-entries=2 exact=32/32
}

// Fine-tune with exact parameter transfers and again with the dirty-byte
// merge switched on after step 20 (the Fig 10 methodology): the runs agree
// until DBA activates.
func ExampleFineTune() {
	cfg := teco.FineTuneConfig{Steps: 40, PreSteps: 40, Seed: 7}
	base := teco.FineTune(cfg)
	cfg.DBA, cfg.ActAfterSteps = true, 20
	red := teco.FineTune(cfg)
	same := 0
	for i, s := range red.Samples {
		if s.Loss == base.Samples[i].Loss {
			same++
		}
	}
	fmt.Printf("DBA active from step %d; %d of %d sampled losses equal the exact run's\n",
		red.ActivatedAt, same, len(red.Samples))
	// Output:
	// DBA active from step 20; 3 of 5 sampled losses equal the exact run's
}

// Project an end-to-end training run and its data-center economics.
func ExampleEstimateTraining() {
	m, _ := teco.ModelByName("GPT2")
	est := teco.EstimateTraining(m, 4, 10000, 500)
	fmt.Printf("speedup %.2fx, time saved %.0f%%\n", est.Speedup, 100*est.TimeSavedFraction)
	// Output:
	// speedup 1.64x, time saved 39%
}
