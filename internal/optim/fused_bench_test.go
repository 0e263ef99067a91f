package optim

import (
	"math"
	"math/rand"
	"testing"

	"teco/internal/checkpoint"
	"teco/internal/parallel"
)

// benchVectors sizes the fused-pass benchmark like the realtrain MLP
// (~136k parameters — several fixed-quantum chunks).
func benchVectors(n int) (params, grads []float32) {
	rng := rand.New(rand.NewSource(7))
	params = make([]float32, n)
	grads = make([]float32, n)
	for i := range params {
		params[i] = float32(rng.NormFloat64())
		grads[i] = float32(rng.NormFloat64()) * 1e-3
	}
	return
}

// BenchmarkFusedAdamScan measures the fused clip+ADAM+scan pass against
// the unfused sequence it replaced (clip walk, update walk, NaN-scan walk,
// guard-sum walk — four traversals versus one fused traversal plus the
// per-chunk guard sums the epilogue computes). Both variants do the same logical
// work on the same data.
func BenchmarkFusedAdamScan(b *testing.B) {
	const n = 1 << 17
	run := func(b *testing.B, fused bool) {
		params, grads := benchVectors(n)
		a := MustAdam(n, AdamConfig{LR: 1e-5})
		nc := parallel.Chunks(n)
		nf := make([]int, nc)
		crc := make([]uint32, nc)
		epi := func(c, lo, hi int) {
			nf[c] = -1
			for i := lo; i < hi; i++ {
				f := float64(params[i])
				if math.IsNaN(f) || math.IsInf(f, 0) {
					nf[c] = i
					break
				}
			}
			crc[c] = checkpoint.GuardSum(params[lo:hi])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if fused {
				_, scale := ClipScale(grads, 1)
				if err := a.StepFused(params, grads, scale, epi); err != nil {
					b.Fatal(err)
				}
			} else {
				ClipGlobalNorm(grads, 1)
				if err := a.Step(params, grads); err != nil {
					b.Fatal(err)
				}
				if i := FirstNonFinite(params); i >= 0 {
					b.Fatalf("non-finite at %d", i)
				}
				parallel.ForChunksIndexed(1, n, func(c, lo, hi int) { crc[c] = checkpoint.GuardSum(params[lo:hi]) })
			}
		}
	}
	b.Run("fused", func(b *testing.B) { run(b, true) })
	b.Run("unfused", func(b *testing.B) { run(b, false) })
}

// TestStepFusedZeroAlloc pins the serial fused pass as allocation-free:
// it runs once per training step inside the trainer's zero-alloc steady
// state, so a closure or escape sneaking into StepFused would reintroduce
// per-step garbage.
func TestStepFusedZeroAlloc(t *testing.T) {
	const n = 1 << 15
	params, grads := benchVectors(n)
	a := MustAdam(n, AdamConfig{LR: 1e-5})
	nc := parallel.Chunks(n)
	crc := make([]uint32, nc)
	epi := func(c, lo, hi int) { crc[c] = checkpoint.GuardSum(params[lo:hi]) }
	if err := a.StepFused(params, grads, 1, epi); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := a.StepFused(params, grads, 0.5, epi); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("serial StepFused allocates %.1f objects/op, want 0", allocs)
	}
}
