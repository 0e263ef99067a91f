package optim

import (
	"math"
	"math/rand"
	"testing"
)

// globalNormChain is GlobalNorm's reference: the plain float64 sum of
// squares in element order, no block skipping.
func globalNormChain(grads []float32) float64 {
	var s float64
	for _, g := range grads {
		s += float64(float64(g) * float64(g))
	}
	return math.Sqrt(s)
}

// normVector fills n words at the given share of ±0, chosen per run of
// `run` words, the rest drawn from ordinary values plus, with special set,
// subnormals, ±3e38 (whose squares overflow the sum to Inf), ±Inf and NaN.
func normVector(rng *rand.Rand, n, run int, zeros float64, special bool) []float32 {
	odd := []float32{math.Float32frombits(1), -math.Float32frombits(0x7fffff), 3e38, -3e38,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	v := make([]float32, n)
	zero := false
	for i := range v {
		if i%run == 0 {
			zero = rng.Float64() < zeros
		}
		switch {
		case zero:
			if rng.Intn(2) == 0 {
				v[i] = float32(math.Copysign(0, -1))
			}
		case special && rng.Intn(8) == 0:
			v[i] = odd[rng.Intn(len(odd))]
		default:
			v[i] = float32(rng.NormFloat64()) * 1e-3
		}
	}
	return v
}

// TestGlobalNormMatchesChain: skipping all-zero blocks leaves GlobalNorm's
// bits those of the plain chain, over every length 0-67 at every offset
// 0-7 into the backing array, at zero densities from none to all, with and
// without the special values.
func TestGlobalNormMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, zeros := range []float64{0, 0.5, 0.92, 1} {
		for _, special := range []bool{false, true} {
			for n := 0; n <= 67; n++ {
				buf := normVector(rng, n+7, 1, zeros, special)
				for off := 0; off <= 7; off++ {
					g := buf[off : off+n]
					got, want := GlobalNorm(g), globalNormChain(g)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("zeros=%v special=%v n=%d off=%d: GlobalNorm %v (%#x), chain %v (%#x)",
							zeros, special, n, off, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

// normSink keeps the benchmarked call from being optimized away.
var normSink float64

// BenchmarkGlobalNorm times the norm over an MLP-sized gradient at the
// fine-tuning zero share (92 %, in whole 32-word embedding rows, as the
// rows a batch does not touch are) and with no zeros.
func BenchmarkGlobalNorm(b *testing.B) {
	for _, c := range []struct {
		name  string
		zeros float64
	}{{"sparse", 0.92}, {"dense", 0}} {
		b.Run(c.name, func(b *testing.B) {
			g := normVector(rand.New(rand.NewSource(2)), 1<<17, 32, c.zeros, false)
			b.SetBytes(4 << 17)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				normSink = GlobalNorm(g)
			}
		})
	}
}
