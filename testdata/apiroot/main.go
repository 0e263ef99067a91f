// Command apiroot stands for the users of package teco in reach_test.go's
// shipped roots. It is built, never run: it calls every exported function
// of package teco, and it looks methods up with reflect.Value.MethodByName
// under a name known only at run time, which makes the linker keep every
// exported method of every type it converts to an interface — the methods
// teco re-exports through its type aliases among them.
package main

import (
	"io"
	"os"
	"reflect"

	"teco"
)

func main() {
	m, _ := teco.ModelByName(os.Args[1])
	old, updated := teco.NewTensor("old", 1), teco.NewTensor("updated", 1)
	replayed, stats, _ := teco.ReplayUpdate(old, updated, teco.ReplayConfig{})
	grads, gradStats, _ := teco.ReplayGradients(updated, teco.ReplayConfig{})
	step := teco.Simulate(teco.TECOReduction, m, 1, teco.SimConfig{})
	fine := teco.FineTune(teco.FineTuneConfig{})
	estimate := teco.EstimateTraining(m, 1, 1, 0)
	cost := teco.DefaultCostModel()
	values := []any{
		teco.Models(), &m, &step, &fine, replayed, grads, &stats, &gradStats,
		&estimate, &cost, teco.ZeroOffload, teco.ClassifyChange(0, 1),
		teco.Speedup(teco.TECOCXL, m, 1), teco.ExperimentIDs(),
		teco.RunExperiment(os.Args[1], 42, io.Discard),
		teco.AnnualSavingsUSD(cost, 0.5),
	}
	for _, v := range values {
		if method := reflect.ValueOf(v).MethodByName(os.Args[2]); method.IsValid() {
			method.Call(nil)
		}
	}
}
