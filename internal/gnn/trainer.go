package gnn

import (
	"teco/internal/dba"
	"teco/internal/optim"
)

// TrainConfig controls a full-graph GCNII training run with the TECO
// parameter path.
type TrainConfig struct {
	Epochs int     // full-graph steps (default 200)
	Hidden int     // hidden width (default 64)
	Layers int     // GCNII depth (default 8)
	LR     float64 // ADAM learning rate (default 1e-2)
	Seed   int64
	// DBA enables the dirty-byte parameter path with ActAfterSteps /
	// DirtyBytes semantics, exactly as in realtrain.
	DBA           bool
	ActAfterSteps int
	DirtyBytes    int
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 200
	}
	if c.Hidden == 0 {
		c.Hidden = 64
	}
	if c.Layers == 0 {
		c.Layers = 8
	}
	if c.LR == 0 {
		c.LR = 1e-2
	}
	if c.DirtyBytes == 0 {
		c.DirtyBytes = dba.DefaultDirtyBytes
	}
	return c
}

// TrainResult is a completed run.
type TrainResult struct {
	Config    TrainConfig
	Losses    []float64
	TestAcc   float64 // accuracy of the accelerator (compute) parameters
	MasterAcc float64 // accuracy of the exact CPU master parameters
}

// Train runs full-graph training (GCNII "only supports full-graph
// training" — there is no batch dimension) with the master/accelerator
// parameter split.
func Train(cfg TrainConfig) TrainResult {
	cfg = cfg.withDefaults()
	g := NewGraph(GraphConfig{Seed: cfg.Seed})
	m := NewGCNII(len(g.Features[0]), cfg.Hidden, g.Classes, cfg.Layers, cfg.Seed+1)

	n := m.NumParams()
	master := m.Params
	compute := make([]float32, n)
	copy(compute, master)
	grads := make([]float32, n)
	ad := optim.MustAdam(n, optim.AdamConfig{LR: cfg.LR, WeightDecay: 5e-4})
	ctrl := dba.NewController(cfg.ActAfterSteps, cfg.DirtyBytes)

	res := TrainResult{Config: cfg}
	for e := 0; e < cfg.Epochs; e++ {
		loss := m.LossAndGrad(compute, g, grads)
		res.Losses = append(res.Losses, loss)
		optim.ClipGlobalNorm(grads, 5.0)
		if err := ad.Step(master, grads); err != nil {
			panic(err) // lengths are static over the whole run
		}
		if cfg.DBA && ctrl.CheckActivation(e) {
			dba.MergeWords(compute, master, cfg.DirtyBytes, 1)
		} else {
			copy(compute, master)
		}
	}
	res.TestAcc = m.Accuracy(compute, g, g.Test)
	res.MasterAcc = m.Accuracy(master, g, g.Test)
	return res
}
