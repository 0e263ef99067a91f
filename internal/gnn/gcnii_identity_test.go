package gnn

import (
	"fmt"
	"math"
	"testing"
)

func bitsEqual(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestGCNIIBitIdenticalToReference: the kernels-backed forward/backward
// reproduces the naive reference bit for bit — loss, every gradient word
// (sign of zero included) and every probability — across hidden widths on
// both sides of the kernels' 4-row block and depths including none. Two
// rounds on one model also cover arena reuse after Reset.
func TestGCNIIBitIdenticalToReference(t *testing.T) {
	g := NewGraph(GraphConfig{Nodes: 60, Feat: 6, Classes: 3, Seed: 4})
	for _, hidden := range []int{1, 3, 4, 7, 64} {
		for _, layers := range []int{0, 1, 8} {
			t.Run(fmt.Sprintf("H%d_L%d", hidden, layers), func(t *testing.T) {
				m := NewGCNII(6, hidden, 3, layers, 5)
				got := make([]float32, m.NumParams())
				want := make([]float32, m.NumParams())
				for round := 0; round < 2; round++ {
					wantLoss, ref := m.refLossAndGrad(m.Params, g, want)
					gotLoss := m.LossAndGrad(m.Params, g, got)
					if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
						t.Fatalf("round %d: loss %v, reference %v", round, gotLoss, wantLoss)
					}
					if i := bitsEqual(got, want); i >= 0 {
						t.Fatalf("round %d: grad[%d] = %x, reference %x", round, i,
							math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
					st := m.forward(m.Params, g)
					for n := range ref.probs {
						if i := bitsEqual(st.probs[n], ref.probs[n]); i >= 0 {
							t.Fatalf("round %d: probs[%d][%d] = %v, reference %v", round, n, i,
								st.probs[n][i], ref.probs[n][i])
						}
					}
					// Move the parameters so round 2 sees different values
					// (and dead ReLU units in different places).
					for i := range m.Params {
						m.Params[i] -= 0.5 * want[i]
					}
				}
			})
		}
	}
}

// TestTrainFinalLossPinned pins the 200-epoch seed-42 runs Table V reports
// to the loss bits the pre-kernel implementation produced, with and without
// the dirty-byte path.
func TestTrainFinalLossPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("two full 200-epoch trainings")
	}
	for _, tc := range []struct {
		cfg  TrainConfig
		want uint64
	}{
		{TrainConfig{Epochs: 200, Seed: 42}, 0x3f575bddc2b55709},
		{TrainConfig{Epochs: 200, Seed: 42, DBA: true, ActAfterSteps: 100}, 0x3f7468e5cf3ea57c},
	} {
		r := Train(tc.cfg)
		if got := math.Float64bits(r.Losses[len(r.Losses)-1]); got != tc.want {
			t.Errorf("DBA=%v: final loss bits %016x, want %016x", tc.cfg.DBA, got, tc.want)
		}
	}
}
