package tuner

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCholeskyAndSolve(t *testing.T) {
	// A = [[4,2],[2,3]] => L = [[2,0],[1,sqrt2]].
	a := [][]float64{{4, 2}, {2, 3}}
	l, err := cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l[0][0]-2) > 1e-12 || math.Abs(l[1][0]-1) > 1e-12 || math.Abs(l[1][1]-math.Sqrt2) > 1e-12 {
		t.Fatalf("L = %v", l)
	}
	// Solve A x = b for b = [8, 7] => x = [11/8... ] check by multiply.
	x := cholSolve(l, []float64{8, 7})
	if math.Abs(4*x[0]+2*x[1]-8) > 1e-9 || math.Abs(2*x[0]+3*x[1]-7) > 1e-9 {
		t.Fatalf("x = %v", x)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	if _, err := cholesky([][]float64{{1, 2}, {2, 1}}); err == nil {
		t.Fatal("indefinite matrix must fail")
	}
}

func TestNormFunctions(t *testing.T) {
	if math.Abs(normCDF(0)-0.5) > 1e-12 {
		t.Fatal("CDF(0)")
	}
	if normCDF(5) < 0.999 || normCDF(-5) > 0.001 {
		t.Fatal("CDF tails")
	}
	if math.Abs(normPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Fatal("PDF(0)")
	}
}

func TestExpectedImprovementProperties(t *testing.T) {
	// Higher mean -> higher EI; zero variance -> zero EI.
	if expectedImprovement(1.0, 0.1, 0.5) <= expectedImprovement(0.6, 0.1, 0.5) {
		t.Fatal("EI must grow with mean")
	}
	if expectedImprovement(0.4, 0, 0.5) != 0 {
		t.Fatal("no variance, no improvement")
	}
	if expectedImprovement(0.4, 0.5, 0.5) <= 0 {
		t.Fatal("uncertainty must give positive EI even below incumbent")
	}
}

func TestMaximizeFindsPeak(t *testing.T) {
	// Smooth unimodal objective with peak at x = 3.
	f := func(x float64) float64 { return -(x - 3) * (x - 3) }
	res, err := Maximize(f, Config{Hi: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.BestX-3) > 0.4 {
		t.Fatalf("best x = %v, want ~3", res.BestX)
	}
	if len(res.Xs) != len(res.Ys) || len(res.Xs) < 4 {
		t.Fatalf("history %d/%d", len(res.Xs), len(res.Ys))
	}
}

func TestMaximizeBeatsGridWithSameBudget(t *testing.T) {
	// A narrow peak: BO's exploitation should land closer than the coarse
	// seed grid alone.
	peak := 7.3
	f := func(x float64) float64 { return math.Exp(-2 * (x - peak) * (x - peak)) }
	res, err := Maximize(f, Config{Hi: 10, InitPoints: 4, Iters: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestY < 0.9 {
		t.Fatalf("best value %v, expected near 1", res.BestY)
	}
}

func TestMaximizeEmptyInterval(t *testing.T) {
	if _, err := Maximize(func(float64) float64 { return 0 }, Config{Hi: 0}); err == nil {
		t.Fatal("expected error")
	}
}

// Property: the reported best is the max over the evaluation history.
func TestBestIsHistoryMaxProperty(t *testing.T) {
	f := func(seed int64) bool {
		obj := func(x float64) float64 { return math.Sin(x) + 0.3*math.Cos(3*x) }
		res, err := Maximize(obj, Config{Hi: 6, Seed: seed, Iters: 6})
		if err != nil {
			return false
		}
		best := math.Inf(-1)
		for _, y := range res.Ys {
			if y > best {
				best = y
			}
		}
		return res.BestY == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGPInterpolates(t *testing.T) {
	g := &gp{ell: 1.0, noise: 1e-8}
	g.xs = []float64{0, 1, 2}
	g.ys = []float64{1, 3, 2}
	if err := g.fit(); err != nil {
		t.Fatal(err)
	}
	for i, x := range g.xs {
		mu, varr := g.predict(x)
		if math.Abs(mu-g.ys[i]) > 1e-3 {
			t.Fatalf("GP does not interpolate at %v: %v vs %v", x, mu, g.ys[i])
		}
		if varr > 1e-3 {
			t.Fatalf("variance at data point = %v", varr)
		}
	}
	// Uncertainty grows away from data.
	_, varFar := g.predict(10)
	_, varNear := g.predict(0.5)
	if varFar <= varNear {
		t.Fatal("variance must grow away from observations")
	}
}
