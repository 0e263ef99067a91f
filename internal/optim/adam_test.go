package optim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaults(t *testing.T) {
	a := MustAdam(4, AdamConfig{})
	cfg := a.cfg
	if cfg.LR != 1e-3 || cfg.Beta1 != 0.9 || cfg.Beta2 != 0.999 || cfg.Eps != 1e-8 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if len(a.m)+len(a.v) != 8 {
		t.Fatalf("state words = %d, want 2 per parameter", len(a.m)+len(a.v))
	}
}

func TestNewAdamRejectsBadSize(t *testing.T) {
	if _, err := NewAdam(0, AdamConfig{}); err == nil {
		t.Fatal("expected error for 0 parameters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdam must panic on invalid size")
		}
	}()
	MustAdam(-1, AdamConfig{})
}

func TestStepLengthMismatchErrors(t *testing.T) {
	a := MustAdam(4, AdamConfig{})
	if err := a.Step(make([]float32, 3), make([]float32, 4)); err == nil {
		t.Fatal("expected error for short params")
	}
	if err := a.Step(make([]float32, 4), make([]float32, 5)); err == nil {
		t.Fatal("expected error for long grads")
	}
	if a.StepCount() != 0 {
		t.Fatal("failed steps must not advance the step counter")
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	a := MustAdam(3, AdamConfig{LR: 0.05})
	p := []float32{1, 2, 3}
	for s := 0; s < 5; s++ {
		if err := a.Step(p, []float32{0.1, -0.2, 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	m, v := a.Moments()
	b := MustAdam(3, AdamConfig{LR: 0.05})
	if err := b.Restore(m, v, a.StepCount()); err != nil {
		t.Fatal(err)
	}
	// Both optimizers must now produce bit-identical updates.
	pa := []float32{4, 5, 6}
	pb := []float32{4, 5, 6}
	g := []float32{-0.5, 0.25, 0.125}
	a.Step(pa, g)
	b.Step(pb, g)
	for i := range pa {
		if math.Float32bits(pa[i]) != math.Float32bits(pb[i]) {
			t.Fatalf("restored optimizer diverged at %d: %v vs %v", i, pa[i], pb[i])
		}
	}
	if err := b.Restore(m[:2], v, 5); err == nil {
		t.Fatal("expected error for short moment vector")
	}
	if err := b.Restore(m, v, -1); err == nil {
		t.Fatal("expected error for negative step")
	}
}

func TestFirstNonFinite(t *testing.T) {
	if i := FirstNonFiniteWorkers([]float32{1, 2, 3}, 1); i != -1 {
		t.Fatalf("clean vector reported index %d", i)
	}
	if i := FirstNonFiniteWorkers([]float32{1, float32(math.NaN()), 3}, 1); i != 1 {
		t.Fatalf("NaN index = %d, want 1", i)
	}
	if i := FirstNonFiniteWorkers([]float32{float32(math.Inf(-1))}, 1); i != 0 {
		t.Fatalf("Inf index = %d, want 0", i)
	}
}

// TestFirstStepMatchesHandComputation pins the exact first-step math.
func TestFirstStepMatchesHandComputation(t *testing.T) {
	a := MustAdam(1, AdamConfig{LR: 0.1})
	p := []float32{1.0}
	g := []float32{0.5}
	a.Step(p, g)
	// After bias correction, the first step is -lr * g/(|g|+eps) = -0.1.
	want := 1.0 - 0.1*0.5/(math.Sqrt(0.25)+1e-8)
	if math.Abs(float64(p[0])-want) > 1e-6 {
		t.Fatalf("p = %v, want %v", p[0], want)
	}
	if a.StepCount() != 1 {
		t.Fatal("step count")
	}
}

// TestConvergesOnQuadratic: ADAM must minimize a simple quadratic.
func TestConvergesOnQuadratic(t *testing.T) {
	a := MustAdam(3, AdamConfig{LR: 0.05})
	p := []float32{5, -3, 2}
	target := []float32{1, 1, 1}
	for i := 0; i < 2000; i++ {
		g := make([]float32, 3)
		for j := range p {
			g[j] = 2 * (p[j] - target[j])
		}
		a.Step(p, g)
	}
	for j := range p {
		if math.Abs(float64(p[j]-target[j])) > 1e-2 {
			t.Fatalf("p[%d] = %v, want ~1", j, p[j])
		}
	}
}

func TestWeightDecayShrinksParams(t *testing.T) {
	a := MustAdam(1, AdamConfig{LR: 0.01, WeightDecay: 0.1})
	p := []float32{10}
	g := []float32{0}
	before := p[0]
	a.Step(p, g)
	if p[0] >= before {
		t.Fatal("weight decay must shrink the parameter with zero gradient")
	}
}

func TestGlobalNorm(t *testing.T) {
	if n := GlobalNorm([]float32{3, 4}); math.Abs(n-5) > 1e-9 {
		t.Fatalf("norm = %v", n)
	}
	if GlobalNorm(nil) != 0 {
		t.Fatal("empty norm")
	}
}

func TestClipGlobalNorm(t *testing.T) {
	g := []float32{3, 4}
	pre := ClipGlobalNorm(g, 1.0)
	if math.Abs(pre-5) > 1e-9 {
		t.Fatalf("pre-clip norm = %v", pre)
	}
	if post := GlobalNorm(g); math.Abs(post-1) > 1e-6 {
		t.Fatalf("post-clip norm = %v", post)
	}
	// Under the cap: untouched.
	g2 := []float32{0.1, 0.1}
	ClipGlobalNorm(g2, 1.0)
	if g2[0] != 0.1 {
		t.Fatal("under-cap gradients must not be scaled")
	}
	// maxNorm <= 0 disables clipping.
	g3 := []float32{30, 40}
	ClipGlobalNorm(g3, 0)
	if g3[0] != 30 {
		t.Fatal("maxNorm=0 must disable clipping")
	}
	// Zero gradients never divide by zero.
	g4 := []float32{0, 0}
	ClipGlobalNorm(g4, 1)
}

// Property: after clipping to maxNorm, the norm never exceeds maxNorm
// (within FP32 rounding) and gradient directions are preserved.
func TestClipProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := make([]float32, 32)
		orig := make([]float32, 32)
		for i := range g {
			g[i] = float32(rng.NormFloat64() * 10)
			orig[i] = g[i]
		}
		ClipGlobalNorm(g, 1.0)
		if GlobalNorm(g) > 1.0+1e-4 {
			return false
		}
		// Direction preserved: same signs.
		for i := range g {
			if (g[i] > 0) != (orig[i] > 0) && g[i] != 0 && orig[i] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: an ADAM step moves each parameter opposite to its gradient on
// the first step (when m and v start at zero).
func TestFirstStepDirectionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16
		a := MustAdam(n, AdamConfig{LR: 0.01})
		p := make([]float32, n)
		g := make([]float32, n)
		before := make([]float32, n)
		for i := range p {
			p[i] = float32(rng.NormFloat64())
			g[i] = float32(rng.NormFloat64())
			before[i] = p[i]
		}
		a.Step(p, g)
		for i := range p {
			if g[i] > 1e-6 && p[i] >= before[i] {
				return false
			}
			if g[i] < -1e-6 && p[i] <= before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The byte-change character of real ADAM fine-tuning updates: with a small
// LR, most changed parameters only change low mantissa bytes — the paper's
// Observation 2 emerging from the real optimizer.
func TestAdamUpdatesMostlyTouchLowBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 4096
	a := MustAdam(n, AdamConfig{LR: 1e-5})
	p := make([]float32, n)
	for i := range p {
		p[i] = float32(rng.NormFloat64())
	}
	// Warm up optimizer moments.
	for s := 0; s < 50; s++ {
		g := make([]float32, n)
		for i := range g {
			g[i] = float32(rng.NormFloat64()) * 1e-3
		}
		a.Step(p, g)
	}
	prev := make([]float32, n)
	copy(prev, p)
	g := make([]float32, n)
	for i := range g {
		g[i] = float32(rng.NormFloat64()) * 1e-3
	}
	a.Step(p, g)
	lowBytes := 0
	changed := 0
	for i := range p {
		x := math.Float32bits(prev[i]) ^ math.Float32bits(p[i])
		if x == 0 {
			continue
		}
		changed++
		if x&0xFFFF0000 == 0 {
			lowBytes++
		}
	}
	if changed == 0 {
		t.Fatal("no parameters changed")
	}
	frac := float64(lowBytes) / float64(changed)
	if frac < 0.5 {
		t.Fatalf("low-byte fraction = %.2f, expected the majority", frac)
	}
}
