package realtrain

import (
	"math"
	"math/rand"
	"testing"

	"teco/internal/dba"
	"teco/internal/tensor"
)

func TestDatasetDeterministic(t *testing.T) {
	a := NewDataset(DatasetConfig{Seed: 7})
	b := NewDataset(DatasetConfig{Seed: 7})
	if a.TrainY[0] != b.TrainY[0] || a.TrainTok[5][3] != b.TrainTok[5][3] {
		t.Fatal("dataset not deterministic")
	}
	c := NewDataset(DatasetConfig{Seed: 8})
	same := true
	for i := range a.TrainY[:100] {
		if a.TrainY[i] != c.TrainY[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical labels")
	}
}

func TestDatasetShapes(t *testing.T) {
	d := NewDataset(DatasetConfig{Vocab: 64, TokensPer: 4, Dim: 16, Classes: 4, Train: 100, Test: 50, Seed: 1})
	if len(d.TrainTok) != 100 || len(d.TestTok) != 50 {
		t.Fatal("sizes")
	}
	if len(d.TrainTok[0]) != 4 {
		t.Fatal("tokens per example")
	}
	for _, tok := range d.TrainTok {
		for _, v := range tok {
			if v < 0 || v >= 64 {
				t.Fatalf("token %d out of range", v)
			}
		}
	}
	for _, y := range d.TrainY {
		if y < 0 || y >= 4 {
			t.Fatalf("label %d out of range", y)
		}
	}
}

func TestMLPForwardIsDistribution(t *testing.T) {
	m := NewMLP(32, 8, 16, 4, 1)
	p := m.Forward(m.Params, []int{1, 5, 9})
	var sum float64
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Fatalf("prob %v out of range", v)
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("probs sum to %v", sum)
	}
}

// TestGradientsMatchFiniteDifferences validates the hand-written backprop.
func TestGradientsMatchFiniteDifferences(t *testing.T) {
	ds := NewDataset(DatasetConfig{Vocab: 32, TokensPer: 4, Dim: 6, Classes: 3, Train: 20, Test: 5, Seed: 3})
	m := NewMLP(32, 6, 10, 3, 4)
	batch := []int{0, 1, 2, 3}
	grads := make([]float32, m.NumParams())
	m.LossAndGrad(m.Params, ds, batch, grads)

	rng := rand.New(rand.NewSource(9))
	const eps = 1e-3
	checked := 0
	for trial := 0; trial < 30; trial++ {
		i := rng.Intn(m.NumParams())
		orig := m.Params[i]
		m.Params[i] = orig + eps
		lp := m.LossAndGrad(m.Params, ds, batch, make([]float32, m.NumParams()))
		m.Params[i] = orig - eps
		lm := m.LossAndGrad(m.Params, ds, batch, make([]float32, m.NumParams()))
		m.Params[i] = orig
		fd := (lp - lm) / (2 * eps)
		// FP32 forward noise (~1e-7 in the loss) makes FD unreliable for
		// gradients below ~1e-3/eps; skip those.
		if math.Abs(fd) < 1e-3 || math.Abs(float64(grads[i])) < 1e-3 {
			continue
		}
		rel := math.Abs(fd-float64(grads[i])) / math.Max(math.Abs(fd), math.Abs(float64(grads[i])))
		if rel > 0.05 {
			t.Fatalf("param %d: analytic %v vs FD %v (rel %.3f)", i, grads[i], fd, rel)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d gradients checked", checked)
	}
}

func TestTrainingLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping long training run in -short mode")
	}
	r := Run(Config{Steps: 200, Seed: 11})
	if r.FinalAcc < 0.5 {
		t.Fatalf("final accuracy %.2f — model did not learn", r.FinalAcc)
	}
	if r.Perplexity != math.Exp(r.FinalLoss) {
		t.Fatal("perplexity definition")
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(Config{Steps: 50, Seed: 5, PreSteps: 50})
	b := Run(Config{Steps: 50, Seed: 5, PreSteps: 50})
	if a.FinalLoss != b.FinalLoss || a.FinalAcc != b.FinalAcc {
		t.Fatal("runs with same seed must be identical")
	}
}

// TestDBAPreservesConvergence is Table V / Fig 10: fine-tuning with DBA
// reaches accuracy close to the exact run, and the loss curves follow the
// same trend.
func TestDBAPreservesConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping long training run in -short mode")
	}
	base := Run(Config{Steps: 600, Seed: 21})
	red := Run(Config{Steps: 600, Seed: 21, DBA: true, ActAfterSteps: 200})
	if red.ActivatedAt != 200 {
		t.Fatalf("DBA activated at %d", red.ActivatedAt)
	}
	if diff := base.FinalAcc - red.FinalAcc; diff > 0.08 {
		t.Fatalf("DBA cost %.3f accuracy (base %.3f, dba %.3f)", diff, base.FinalAcc, red.FinalAcc)
	}
	// Loss trends comparable: final sampled losses within a band.
	_, lb := base.LossCurve()
	_, lr := red.LossCurve()
	if math.Abs(lb[len(lb)-1]-lr[len(lr)-1]) > 0.5 {
		t.Fatalf("loss curves diverged: %.3f vs %.3f", lb[len(lb)-1], lr[len(lr)-1])
	}
}

// TestFig2Shape: among changed parameters in the fine-tuning regime, the
// overwhelming majority change only their low two bytes, while gradients
// change across all bytes (paper Observation 2).
func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping long training run in -short mode")
	}
	r := Run(Config{Steps: 300, Seed: 31})
	params, grads := r.AggregateDistributions()
	lowTwo := params.FracOfChanged(tensor.LastByte) + params.FracOfChanged(tensor.LastTwoBytes)
	if lowTwo < 0.6 {
		t.Fatalf("param low-two-byte fraction = %.2f, want the majority", lowTwo)
	}
	gOther := grads.FracOfChanged(tensor.Other)
	if gOther < 0.5 {
		t.Fatalf("gradient 'other' fraction = %.2f; gradients should churn all bytes", gOther)
	}
	if params.FracUnchanged() <= 0 {
		t.Fatal("some parameters should be unchanged between steps")
	}
}

// TestImmediateDBAHurtsMore: Fig 13 — activating DBA from step 0 costs
// more accuracy than activating late, because early training still moves
// parameter exponents.
func TestImmediateDBAHurtsMore(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping long training run in -short mode")
	}
	late := Run(Config{Steps: 600, Seed: 41, DBA: true, ActAfterSteps: 400})
	early := Run(Config{Steps: 600, Seed: 41, DBA: true, ActAfterSteps: 0})
	if early.DivergedWords < late.DivergedWords {
		t.Fatalf("early activation should accumulate at least as much divergence (%d vs %d)",
			early.DivergedWords, late.DivergedWords)
	}
}

// TestMergeDirtyBytes: the trainer's merge, dba.MergeWords, keeps the
// compute copy's high bytes and takes the master's low n bytes per word.
func TestMergeDirtyBytes(t *testing.T) {
	compute := []float32{math.Float32frombits(0xAABBCCDD)}
	master := []float32{math.Float32frombits(0x11223344)}
	dba.MergeWords(compute, master, 2, 1)
	if got := math.Float32bits(compute[0]); got != 0xAABB3344 {
		t.Fatalf("merge = %08x", got)
	}
	dba.MergeWords(compute, master, 4, 1)
	if math.Float32bits(compute[0]) != 0x11223344 {
		t.Fatal("n=4 must copy fully")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	dba.MergeWords(compute, master, 5, 1)
}

func TestMergeMatchesDBADisaggregate(t *testing.T) {
	// The trainer's word-level merge must agree with the hardware
	// Disaggregator's line-level merge.
	rng := rand.New(rand.NewSource(55))
	compute := make([]float32, 16)
	master := make([]float32, 16)
	for i := range compute {
		compute[i] = math.Float32frombits(rng.Uint32())
		master[i] = math.Float32frombits(rng.Uint32())
	}
	oldT := tensor.FromSlice("old", append([]float32(nil), compute...))
	newT := tensor.FromSlice("new", append([]float32(nil), master...))
	dba.MergeWords(compute, master, 2, 1)

	// Hardware path: EncodeLine -> Aggregate -> Disaggregate.
	oldLine := oldT.EncodeLine(0)
	newLine := newT.EncodeLine(0)
	merged := tensor.New("m", 16)
	mergedLine := make([]byte, 64)
	copy(mergedLine, oldLine)
	payload := make([]byte, 0, 32)
	for w := 0; w < 16; w++ {
		payload = append(payload, newLine[w*4], newLine[w*4+1])
	}
	for w := 0; w < 16; w++ {
		mergedLine[w*4] = payload[w*2]
		mergedLine[w*4+1] = payload[w*2+1]
	}
	merged.DecodeLine(0, mergedLine)
	for i := 0; i < 16; i++ {
		if math.Float32bits(merged.At(i)) != math.Float32bits(compute[i]) {
			t.Fatalf("word %d: hardware %08x vs trainer %08x", i,
				math.Float32bits(merged.At(i)), math.Float32bits(compute[i]))
		}
	}
}

// TestFP16ComputeComposesWithDBA: mixed-precision training (paper §V) —
// the GPU-side FP32->FP16 conversion does not defeat DBA, because the
// CPU->GPU transfer stays FP32.
func TestFP16ComputeComposesWithDBA(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping long training run in -short mode")
	}
	fp16 := Run(Config{Steps: 400, Seed: 61, FP16Compute: true})
	both := Run(Config{Steps: 400, Seed: 61, FP16Compute: true, DBA: true, ActAfterSteps: 100})
	if fp16.FinalAcc < 0.35 {
		t.Fatalf("fp16 training collapsed: acc %.3f", fp16.FinalAcc)
	}
	if diff := fp16.FinalAcc - both.FinalAcc; diff > 0.10 {
		t.Fatalf("DBA on top of fp16 cost %.3f accuracy", diff)
	}
}

// TestFP16AloneCloseToFP32: the mixed-precision rounding itself is benign.
func TestFP16AloneCloseToFP32(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping long training run in -short mode")
	}
	fp32 := Run(Config{Steps: 300, Seed: 71})
	fp16 := Run(Config{Steps: 300, Seed: 71, FP16Compute: true})
	if diff := fp32.FinalAcc - fp16.FinalAcc; diff > 0.10 || diff < -0.10 {
		t.Fatalf("fp16 accuracy gap %.3f too large (%.3f vs %.3f)", diff, fp32.FinalAcc, fp16.FinalAcc)
	}
}

// TestTrajectoriesIdenticalBeforeActivation: until act_aft_steps, the DBA
// run transfers full parameters, so its sampled losses must be bit-identical
// to the exact run's.
func TestTrajectoriesIdenticalBeforeActivation(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping long training run in -short mode")
	}
	const act = 200
	base := Run(Config{Steps: 300, Seed: 81})
	red := Run(Config{Steps: 300, Seed: 81, DBA: true, ActAfterSteps: act})
	for i := range base.Samples {
		if base.Samples[i].Step >= act {
			break
		}
		if base.Samples[i].Loss != red.Samples[i].Loss {
			t.Fatalf("step %d: losses diverged before activation (%v vs %v)",
				base.Samples[i].Step, base.Samples[i].Loss, red.Samples[i].Loss)
		}
		if red.Samples[i].DBAActive {
			t.Fatalf("DBA active at step %d, before act_aft_steps", base.Samples[i].Step)
		}
	}
}
