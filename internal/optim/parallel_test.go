package optim

import (
	"math"
	"math/rand"
	"testing"
)

// TestAdamParallelBitIdentical drives serial and parallel optimizers over
// the same gradient stream and requires bit-equal parameters and moments at
// every step — the optimizer half of the determinism contract.
func TestAdamParallelBitIdentical(t *testing.T) {
	const n = 40000 // > 2 chunks, with a ragged tail
	for _, workers := range []int{2, 8} {
		rng := rand.New(rand.NewSource(7))
		base := make([]float32, n)
		for i := range base {
			base[i] = rng.Float32()*2 - 1
		}
		pSer := append([]float32(nil), base...)
		pPar := append([]float32(nil), base...)
		ser := MustAdam(n, AdamConfig{LR: 1e-3, WeightDecay: 0.01})
		par := MustAdam(n, AdamConfig{LR: 1e-3, WeightDecay: 0.01, Workers: workers})
		grads := make([]float32, n)
		for step := 0; step < 5; step++ {
			for i := range grads {
				grads[i] = rng.Float32()*0.2 - 0.1
			}
			if err := ser.Step(pSer, grads); err != nil {
				t.Fatal(err)
			}
			if err := par.Step(pPar, grads); err != nil {
				t.Fatal(err)
			}
			for i := range pSer {
				if math.Float32bits(pSer[i]) != math.Float32bits(pPar[i]) {
					t.Fatalf("workers=%d step=%d: params diverge at %d: %08x vs %08x",
						workers, step, i, math.Float32bits(pSer[i]), math.Float32bits(pPar[i]))
				}
			}
			sm, sv := ser.Moments()
			pm, pv := par.Moments()
			for i := range sm {
				if math.Float32bits(sm[i]) != math.Float32bits(pm[i]) ||
					math.Float32bits(sv[i]) != math.Float32bits(pv[i]) {
					t.Fatalf("workers=%d step=%d: moments diverge at %d", workers, step, i)
				}
			}
		}
	}
}

func TestFirstNonFiniteWorkers(t *testing.T) {
	const n = 50000
	x := make([]float32, n)
	for _, workers := range []int{1, 2, 8} {
		if got := FirstNonFiniteWorkers(x, workers); got != -1 {
			t.Fatalf("workers=%d: clean vector returned %d", workers, got)
		}
	}
	// Plant hits in different chunks; the reported index must be the
	// smallest at every worker count.
	x[33000] = float32(math.Inf(1))
	x[17000] = float32(math.NaN())
	for _, workers := range []int{1, 2, 8} {
		if got := FirstNonFiniteWorkers(x, workers); got != 17000 {
			t.Fatalf("workers=%d: got %d, want 17000", workers, got)
		}
	}
}

func benchmarkAdamStep(b *testing.B, workers int) {
	const n = 1 << 20
	params := make([]float32, n)
	grads := make([]float32, n)
	rng := rand.New(rand.NewSource(1))
	for i := range params {
		params[i] = rng.Float32()
		grads[i] = rng.Float32() * 0.01
	}
	ad := MustAdam(n, AdamConfig{Workers: workers})
	// A step reads params, grads, m and v (16 B) and writes params, m and
	// v (12 B) per parameter.
	b.SetBytes(int64(n) * 28)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ad.Step(params, grads); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/param")
}

func BenchmarkAdamStepSerial(b *testing.B)   { benchmarkAdamStep(b, 1) }
func BenchmarkAdamStepParallel(b *testing.B) { benchmarkAdamStep(b, -1) }
