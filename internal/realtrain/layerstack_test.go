package realtrain

import (
	"math"
	"reflect"
	"testing"
)

// stackTestConfig is a short stack run cheap enough for unit tests.
func stackTestConfig(layers int) Config {
	return Config{
		Arch: "stack", Layers: layers,
		Steps: 6, Batch: 8, PreSteps: 12, Seed: 7, SampleEvery: 2,
	}
}

// TestLayerStackGradFiniteDiff validates the hand-derived backward pass of
// the N-layer stack against central finite differences on a spread of
// parameter indices from every segment.
func TestLayerStackGradFiniteDiff(t *testing.T) {
	ds := NewDataset(DatasetConfig{Seed: 3, Train: 64, Test: 16})
	m := NewLayerStack(ds.Vocab, ds.Dim, ds.Classes, 3, 11)
	batch := []int{1, 5, 9, 23}
	grads := make([]float32, m.NumParams())
	m.LossAndGrad(m.Params, ds, batch, grads)

	params64 := make([]float64, len(m.Params))
	for i, v := range m.Params {
		params64[i] = float64(v)
	}
	lossAt := func(i int, delta float64) float64 {
		orig := m.Params[i]
		m.Params[i] = float32(params64[i] + delta)
		scratch := make([]float32, m.NumParams())
		l := m.LossAndGrad(m.Params, ds, batch, scratch)
		m.Params[i] = orig
		return l
	}

	// Probe indices: three per layer-granular span of the flat vector — the
	// embedding (rows the batch touches), every block, and the head.
	emb, block := m.Vocab*m.Dim, m.blockParams()
	spans := [][2]int{{0, emb}}
	for l := 0; l < m.Layers; l++ {
		spans = append(spans, [2]int{emb + l*block, emb + (l+1)*block})
	}
	spans = append(spans, [2]int{emb + m.Layers*block, m.NumParams()})
	var probes []int
	for _, s := range spans {
		span := s[1] - s[0]
		for _, frac := range []int{7, span / 2, span - 3} {
			probes = append(probes, s[0]+frac%span)
		}
	}
	const eps = 1e-2
	checked := 0
	for _, i := range probes {
		num := (lossAt(i, eps) - lossAt(i, -eps)) / (2 * eps)
		got := float64(grads[i])
		// The loss is computed in FP32, so the quotient carries ~1e-5 of
		// round-off noise; gradients below that scale (and embedding rows
		// outside the batch, which are exactly zero both ways) are skipped.
		if math.Max(math.Abs(num), math.Abs(got)) < 1e-4 {
			continue
		}
		rel := math.Abs(num-got) / math.Max(math.Abs(num), math.Abs(got))
		if rel > 0.05 && math.Abs(num-got) > 5e-4 {
			t.Errorf("param %d: analytic %g vs numeric %g (rel %.3f)", i, got, num, rel)
		}
		checked++
	}
	if checked < 8 {
		t.Fatalf("only %d non-trivial probes checked", checked)
	}
}

// TestLayerStackTrains asserts the stack actually learns the synthetic
// task: a short fine-tune from a pre-trained state beats chance accuracy.
func TestLayerStackTrains(t *testing.T) {
	cfg := stackTestConfig(2)
	cfg.Steps, cfg.PreSteps = 20, 500
	res := Run(cfg)
	// 8 classes: chance is 0.125.
	if res.FinalAcc < 0.3 {
		t.Fatalf("stack accuracy %.3f barely above chance", res.FinalAcc)
	}
	if math.IsNaN(res.FinalLoss) || math.IsInf(res.FinalLoss, 0) {
		t.Fatalf("non-finite final loss %v", res.FinalLoss)
	}
}

// TestLayerStackDeterministic asserts two identical runs are DeepEqual.
func TestLayerStackDeterministic(t *testing.T) {
	a := Run(stackTestConfig(3))
	b := Run(stackTestConfig(3))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("stack run not deterministic")
	}
}

// TestLayerStackSnapshotRestore proves mid-run crash/restore of the stack
// arch is bit-identical to the uninterrupted run — the multi-layer case of
// the PR 2 recovery guarantee.
func TestLayerStackSnapshotRestore(t *testing.T) {
	cfg := stackTestConfig(3)
	ref, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !ref.Done() {
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
	}

	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := tr.Snapshot()
	restored, err := NewTrainerFromSnapshot(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	for !restored.Done() {
		if err := restored.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(ref.Result(), restored.Result()) {
		t.Fatal("restored stack run diverged from uninterrupted run")
	}
	for i := range ref.MasterParams() {
		if ref.MasterParams()[i] != restored.MasterParams()[i] {
			t.Fatalf("master word %d differs after restore", i)
		}
	}
}
