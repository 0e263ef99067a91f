package optim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"teco/internal/kernels"
)

// adamSpecials are the value classes where a vector body could part from
// the scalar one: signed zeros, a subnormal, a value whose square
// overflows float32, infinities and NaN.
var adamSpecials = []float32{
	0, float32(math.Copysign(0, -1)), math.Float32frombits(0x00000123),
	-math.Float32frombits(0x00400001), 3e38, -3e38,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

func adamOperand(rng *rand.Rand, n int, scale float64) []float32 {
	s := make([]float32, n)
	for i := range s {
		if rng.Intn(6) == 0 {
			s[i] = adamSpecials[rng.Intn(len(adamSpecials))]
		} else {
			s[i] = float32(rng.NormFloat64() * scale)
		}
	}
	return s
}

// TestAdamLanesMatchScalar is the oracle of adam_amd64.s: the dispatched
// update must give the bits of updateGeneric on every length 0–67 at every
// start offset 0–7 (so the vector body, its tail and unaligned operands all
// run), with and without weight decay and clip scale, at steps whose bias
// corrections differ (at step 400, c1 rounds to exactly 1). A NaN matches
// any NaN; every other result must match bit for bit.
func TestAdamLanesMatchScalar(t *testing.T) {
	if !kernels.AVX2() {
		t.Skip("no AVX2 on this CPU: the update is the Go reference itself")
	}
	if k := newAdamStep(AdamConfig{}, 400, 1); k.c1 != 1 {
		t.Fatalf("c1 at step 400 = %v, want exactly 1", k.c1)
	}
	rng := rand.New(rand.NewSource(38))
	for _, wd := range []float64{0, 5e-4} {
		for _, scale := range []float32{1, 0.37} {
			for _, step := range []int{1, 2, 10, 400} {
				k := newAdamStep(AdamConfig{LR: 1e-3, WeightDecay: wd}, step, scale)
				for off := 0; off < 8; off++ {
					for n := 0; n <= 67; n++ {
						p := adamOperand(rng, off+n, 1)
						g := adamOperand(rng, off+n, 1e-2)
						m := adamOperand(rng, off+n, 1e-3)
						v := adamOperand(rng, off+n, 1e-6)
						for i := range v {
							if rng.Intn(4) > 0 {
								v[i] = float32(math.Abs(float64(v[i]))) // mostly the sign a real v has
							}
						}
						want := [][]float32{clone(p), clone(g), clone(m), clone(v)}
						update(p[off:], g[off:], m[off:], v[off:], k)
						updateGeneric(want[0][off:], want[1][off:], want[2][off:], want[3][off:], k)
						for i, got := range [][]float32{p, g, m, v} {
							name := fmt.Sprintf("wd=%v scale=%v step=%d off=%d n=%d %s", wd, scale, step, off, n, "pgmv"[i:i+1])
							sameBits(t, name, got, want[i])
						}
					}
				}
			}
		}
	}
}

func clone(s []float32) []float32 { return append([]float32(nil), s...) }

// sameBits fails at the first element whose bits differ; NaN matches NaN,
// since x86 keeps the first operand's payload and Go may commute operands.
func sameBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range got {
		g, w := got[i], want[i]
		if g != g && w != w {
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: element %d: got %08x (%g) want %08x (%g)",
				name, i, math.Float32bits(g), g, math.Float32bits(w), w)
		}
	}
}
