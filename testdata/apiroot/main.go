// Command apiroot stands for the users of package teco in reach_test.go's
// shipped roots. It is built, never run: it calls every exported function
// of package teco and, by name, every exported method of the types teco
// re-exports through aliases (and of the struct types their fields expose),
// so the linker keeps exactly the API a library user can reach and nothing
// else.
package main

import (
	"io"
	"os"

	"teco"
)

func main() {
	m, _ := teco.ModelByName(os.Args[1])
	old, updated := teco.NewTensor("old", 1), teco.NewTensor("updated", 1)
	replayed, stats, _ := teco.ReplayUpdate(old, updated, teco.ReplayConfig{})
	grads, gradStats, _ := teco.ReplayGradients(updated, teco.ReplayConfig{})
	step := teco.Simulate(teco.TECOReduction, m, 1, teco.SimConfig{})
	fine := teco.FineTune(teco.FineTuneConfig{}.WithDefaults())
	estimate := teco.EstimateTraining(m, 1, 1, 0)
	cost := teco.DefaultCostModel()
	class := teco.ClassifyChange(0, 1)
	steps, losses := fine.LossCurve()
	params, gradDist := fine.AggregateDistributions()
	replayed.CopyFrom(old)
	replayed.Set(0, old.At(0))
	replayed.DecodeLine(0, old.EncodeLineInto(0, old.EncodeLine(0)))
	_ = []any{
		teco.Models(), replayed, grads, stats, gradStats, estimate,
		teco.ZeroOffload.String(), class.String(), steps, losses, params, gradDist,
		teco.Speedup(teco.TECOCXL, m, 1), teco.ExperimentIDs(),
		teco.RunExperiment(os.Args[1], 42, io.Discard),
		teco.AnnualSavingsUSD(cost, 0.5), cost.AnnualSavingsUSD(0.5),
		m.ActivationBytes(1), m.GPUFootprintBytes(1), m.FitsOnV100(1), m.MaxBatchOnV100(1),
		m.ParamBytes(), m.GradBytes(), m.OptimizerStateBytes(), m.GiantCacheBytes(0),
		m.StepFLOPs(1), m.PerLayerParamBytes(), m.String(),
		step.TotalLinkBytes(), step.Check(), step.Speedup(step), step.CommReduction(step),
		step.Total(), step.CommExposed(), step.CommFraction(), step.Compute(), step.Breakdown.String(),
		step.Fault.Any(), step.Fabric.Any(), step.Layer.Any(), step.Tier.Any(),
		step.Recovery.Any(), step.Recovery.Add(step.Recovery),
		old.Name(), old.Len(), old.Bytes(), old.Lines(), old.Data(), old.Clone(),
	}
}
