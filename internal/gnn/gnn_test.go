package gnn

import (
	"math"
	"math/rand"
	"testing"
)

func TestGraphConstruction(t *testing.T) {
	g := NewGraph(GraphConfig{Seed: 1})
	if g.N != 251 || g.Classes != 5 {
		t.Fatalf("N=%d classes=%d", g.N, g.Classes)
	}
	if len(g.Train)+len(g.Val)+len(g.Test) != g.N {
		t.Fatal("split does not cover the graph")
	}
	// 48/32/20 split.
	if got := len(g.Train); got != 251*48/100 {
		t.Fatalf("train = %d", got)
	}
	for _, y := range g.Labels {
		if y < 0 || y >= g.Classes {
			t.Fatalf("label %d", y)
		}
	}
	edges := 0
	for _, idx := range g.adjIdx {
		edges += len(idx)
	}
	if edges < g.N {
		t.Fatal("every node has at least its self-loop")
	}
}

// TestNormalizedAdjacencyRowMass: Â row sums are bounded (for a regular
// graph they are ~1); mainly checks the normalization is applied.
func TestNormalizedAdjacency(t *testing.T) {
	g := NewGraph(GraphConfig{Seed: 2})
	ones := alloc(g.N, 1)
	for i := range ones {
		ones[i][0] = 1
	}
	out := alloc(g.N, 1)
	g.Propagate(ones, out)
	for i := range out {
		if out[i][0] <= 0 || out[i][0] > 1.5 {
			t.Fatalf("row %d mass = %v", i, out[i][0])
		}
	}
}

func TestPropagatePanicsOnBadShape(t *testing.T) {
	g := NewGraph(GraphConfig{Seed: 3})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Propagate(alloc(3, 4), alloc(3, 4))
}

func TestGCNIIShapes(t *testing.T) {
	m := NewGCNII(32, 64, 5, 8, 1)
	want := 32*64 + 64 + 8*64*64 + 64*5 + 5
	if m.NumParams() != want {
		t.Fatalf("params = %d, want %d", m.NumParams(), want)
	}
	if len(m.Params) != want {
		t.Fatal("flat vector size")
	}
	// beta decays with depth (identity mapping strengthens in deep layers).
	if m.beta(1) <= m.beta(8) {
		t.Fatal("beta must decay with layer index")
	}
}

// TestGCNIIGradientsMatchFiniteDifferences validates the full-graph
// backprop (encoder, GCNII layers with residual+identity mapping,
// classifier) against central differences.
func TestGCNIIGradientsMatchFiniteDifferences(t *testing.T) {
	g := NewGraph(GraphConfig{Nodes: 40, Feat: 6, Classes: 3, Seed: 4})
	m := NewGCNII(6, 8, 3, 3, 5)
	grads := make([]float32, m.NumParams())
	m.LossAndGrad(m.Params, g, grads)

	rng := rand.New(rand.NewSource(6))
	const eps = 1e-3
	checked := 0
	for trial := 0; trial < 60 && checked < 15; trial++ {
		i := rng.Intn(m.NumParams())
		orig := m.Params[i]
		m.Params[i] = orig + eps
		lp := m.LossAndGrad(m.Params, g, make([]float32, m.NumParams()))
		m.Params[i] = orig - eps
		lm := m.LossAndGrad(m.Params, g, make([]float32, m.NumParams()))
		m.Params[i] = orig
		fd := (lp - lm) / (2 * eps)
		if math.Abs(fd) < 1e-3 || math.Abs(float64(grads[i])) < 1e-3 {
			continue
		}
		rel := math.Abs(fd-float64(grads[i])) / math.Max(math.Abs(fd), math.Abs(float64(grads[i])))
		if rel > 0.08 {
			t.Fatalf("param %d: analytic %v vs FD %v (rel %.3f)", i, grads[i], fd, rel)
		}
		checked++
	}
	if checked < 8 {
		t.Fatalf("only %d gradients checked", checked)
	}
}

func TestFullGraphTrainingLearns(t *testing.T) {
	r := Train(TrainConfig{Epochs: 150, Seed: 7})
	chance := 1.0 / 5
	if r.TestAcc < chance+0.15 {
		t.Fatalf("test accuracy %.3f barely above chance", r.TestAcc)
	}
	// Loss decreased.
	if r.Losses[len(r.Losses)-1] >= r.Losses[0] {
		t.Fatalf("loss did not decrease: %v -> %v", r.Losses[0], r.Losses[len(r.Losses)-1])
	}
}

func TestTrainingDeterministic(t *testing.T) {
	a := Train(TrainConfig{Epochs: 30, Seed: 8})
	b := Train(TrainConfig{Epochs: 30, Seed: 8})
	if a.TestAcc != b.TestAcc || a.Losses[29] != b.Losses[29] {
		t.Fatal("training not deterministic")
	}
}

// TestDBAOnGNN: the dirty-byte path works on the graph workload too — the
// full-graph equivalent of Table V's accuracy comparison.
func TestDBAOnGNN(t *testing.T) {
	base := Train(TrainConfig{Epochs: 200, Seed: 9})
	red := Train(TrainConfig{Epochs: 200, Seed: 9, DBA: true, ActAfterSteps: 100})
	if diff := base.TestAcc - red.TestAcc; diff > 0.12 {
		t.Fatalf("DBA cost %.3f accuracy on the GNN (%.3f -> %.3f)", diff, base.TestAcc, red.TestAcc)
	}
}
