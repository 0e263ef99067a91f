package main

import (
	"math/rand"
	"testing"

	"teco/internal/realtrain"
)

// realtrainGroup times one full fine-tuning step (guards, forward/backward,
// fused clip+ADAM+scan, DBA merge, checksum refresh) and the model's
// forward+backward alone, for one proxy architecture, configured as the
// train workload configures FineTune.
func realtrainGroup(arch string) group {
	step, fwdbwd, allocs := "realtrain.step_ms."+arch, "realtrain.fwdbwd_ms."+arch, "realtrain.allocs_per_step."+arch
	return group{"realtrain/" + arch, []string{step, fwdbwd, allocs}, func(c *ctx) (map[string]float64, error) {
		tr, err := realtrain.NewTrainer(realtrain.Config{
			Steps: 1 << 30, Batch: 32, Seed: c.seed, PreSteps: 1, Arch: arch, DBA: true, SDCChecks: true,
			SampleEvery: 1 << 29, // no sample append inside the measured steps
		})
		if err != nil {
			return nil, err
		}
		var stepErr error
		doStep := func() {
			if err := tr.Step(); err != nil {
				stepErr = err
			}
		}
		for i := 0; i < 3; i++ { // arenas and scratch reach steady state
			doStep()
		}
		const stepsPerRep = 5
		stepTime := medianTime(7, func() {
			for i := 0; i < stepsPerRep; i++ {
				doStep()
			}
		})
		allocsPerStep := testing.AllocsPerRun(10, doStep)
		if stepErr != nil {
			return nil, stepErr
		}

		ds := realtrain.NewDataset(realtrain.DatasetConfig{Seed: c.seed})
		var model interface {
			NumParams() int
			Parameters() []float32
			LossAndGrad(params []float32, ds *realtrain.Dataset, batch []int, grads []float32) float64
		}
		switch arch {
		case "attention":
			model = realtrain.NewAttention(ds.Vocab, ds.Dim, ds.Classes, c.seed+1)
		case "stack":
			model = realtrain.NewLayerStack(ds.Vocab, ds.Dim, ds.Classes, 2, c.seed+1)
		default:
			model = realtrain.NewMLP(ds.Vocab, ds.Dim, 128, ds.Classes, c.seed+1)
		}
		batch := ds.Batch(rand.New(rand.NewSource(c.seed)), 32)
		grads := make([]float32, model.NumParams())
		model.LossAndGrad(model.Parameters(), ds, batch, grads)
		fb := medianTime(7, func() {
			for i := 0; i < stepsPerRep; i++ {
				model.LossAndGrad(model.Parameters(), ds, batch, grads)
			}
		})
		return map[string]float64{
			step:   float64(stepTime) / 1e6 / stepsPerRep,
			fwdbwd: float64(fb) / 1e6 / stepsPerRep,
			allocs: allocsPerStep,
		}, nil
	}}
}
