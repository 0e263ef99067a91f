// Package tuner implements the hyperparameter search the paper prescribes
// for `act_aft_steps` (§V-A: "act_aft_steps can be tuned using the Bayesian
// optimization [17], [94]"): a Gaussian-process Bayesian optimizer with an
// RBF kernel and expected-improvement acquisition, written from scratch on
// the standard library.
//
// The objective balances final model quality against training speedup —
// exactly the trade-off Figure 13 sweeps by hand.
package tuner

import (
	"fmt"
	"math"
	"math/rand"
)

// Objective evaluates a candidate x in [0, hi] and returns a score to
// MAXIMIZE.
type Objective func(x float64) float64

// Config controls the optimizer.
type Config struct {
	Hi float64 // search interval [0, Hi]
	// InitPoints seeds the GP with evenly spaced evaluations (default 4).
	InitPoints int
	// Iters is the number of BO iterations after seeding (default 12).
	Iters int
	// LengthScale is the RBF kernel length scale, in input units
	// (default: Hi/5).
	LengthScale float64
	// Noise is the observation noise variance (default 1e-6 relative).
	Noise float64
	Seed  int64
}

func (c Config) withDefaults() Config {
	if c.InitPoints == 0 {
		c.InitPoints = 4
	}
	if c.Iters == 0 {
		c.Iters = 12
	}
	if c.LengthScale == 0 {
		c.LengthScale = c.Hi / 5
	}
	if c.Noise == 0 {
		c.Noise = 1e-6
	}
	return c
}

// Result is the optimization outcome.
type Result struct {
	BestX, BestY float64
	// Xs/Ys are all evaluated points in evaluation order.
	Xs, Ys []float64
}

// gp is a tiny exact Gaussian process (RBF kernel, zero mean after
// standardization).
type gp struct {
	xs, ys []float64
	mean   float64
	std    float64
	ell    float64
	noise  float64
	// chol is the Cholesky factor of K + noise*I.
	chol  [][]float64
	alpha []float64 // (K+nI)^-1 y~
}

func (g *gp) kernel(a, b float64) float64 {
	d := (a - b) / g.ell
	return math.Exp(-0.5 * d * d)
}

// fit builds the posterior from the observations.
func (g *gp) fit() error {
	n := len(g.xs)
	// Standardize targets.
	g.mean = 0
	for _, y := range g.ys {
		g.mean += y
	}
	g.mean /= float64(n)
	g.std = 0
	for _, y := range g.ys {
		g.std += float64((y - g.mean) * (y - g.mean))
	}
	g.std = math.Sqrt(g.std/float64(n)) + 1e-12
	yt := make([]float64, n)
	for i, y := range g.ys {
		yt[i] = (y - g.mean) / g.std
	}
	// K + noise I.
	K := make([][]float64, n)
	for i := range K {
		K[i] = make([]float64, n)
		for j := range K[i] {
			K[i][j] = g.kernel(g.xs[i], g.xs[j])
		}
		K[i][i] += g.noise
	}
	chol, err := cholesky(K)
	if err != nil {
		return err
	}
	g.chol = chol
	g.alpha = cholSolve(chol, yt)
	return nil
}

// predict returns the posterior mean and variance at x (standardized space
// converted back).
func (g *gp) predict(x float64) (mu, varr float64) {
	n := len(g.xs)
	k := make([]float64, n)
	for i := range k {
		k[i] = g.kernel(x, g.xs[i])
	}
	var m float64
	for i := range k {
		m += float64(k[i] * g.alpha[i])
	}
	// v = L^-1 k ; var = k(x,x) - v.v
	v := forwardSolve(g.chol, k)
	var vv float64
	for _, t := range v {
		vv += float64(t * t)
	}
	varr = g.kernel(x, x) - vv
	if varr < 1e-12 {
		varr = 1e-12
	}
	return g.mean + float64(g.std*m), g.std * g.std * varr
}

// cholesky returns the lower-triangular factor of a symmetric
// positive-definite matrix.
func cholesky(a [][]float64) ([][]float64, error) {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := 0; k < j; k++ {
				sum -= float64(l[i][k] * l[j][k])
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("tuner: matrix not positive definite at %d (%g)", i, sum)
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, nil
}

// forwardSolve solves L v = b.
func forwardSolve(l [][]float64, b []float64) []float64 {
	n := len(b)
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= float64(l[i][k] * v[k])
		}
		v[i] = sum / l[i][i]
	}
	return v
}

// cholSolve solves (L L^T) x = b.
func cholSolve(l [][]float64, b []float64) []float64 {
	n := len(b)
	v := forwardSolve(l, b)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := v[i]
		for k := i + 1; k < n; k++ {
			sum -= float64(l[k][i] * x[k])
		}
		x[i] = sum / l[i][i]
	}
	return x
}

// normPDF / normCDF for expected improvement.
func normPDF(z float64) float64 { return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi) }
func normCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// expectedImprovement over the incumbent best.
func expectedImprovement(mu, varr, best float64) float64 {
	sd := math.Sqrt(varr)
	if sd < 1e-12 {
		return 0
	}
	z := (mu - best) / sd
	return float64((mu-best)*normCDF(z)) + float64(sd*normPDF(z))
}

// Maximize runs Bayesian optimization of f over [0, cfg.Hi].
func Maximize(f Objective, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Hi <= 0 {
		return Result{}, fmt.Errorf("tuner: empty interval [0, %g]", cfg.Hi)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &gp{ell: cfg.LengthScale, noise: cfg.Noise}
	res := Result{BestY: math.Inf(-1)}

	eval := func(x float64) {
		y := f(x)
		g.xs = append(g.xs, x)
		g.ys = append(g.ys, y)
		res.Xs = append(res.Xs, x)
		res.Ys = append(res.Ys, y)
		if y > res.BestY {
			res.BestX, res.BestY = x, y
		}
	}

	// Seed with evenly spaced points (slightly jittered to avoid exact
	// kernel degeneracy).
	for i := 0; i < cfg.InitPoints; i++ {
		frac := (float64(i) + 0.5) / float64(cfg.InitPoints)
		x := float64(frac * cfg.Hi)
		eval(x)
	}

	for it := 0; it < cfg.Iters; it++ {
		if err := g.fit(); err != nil {
			return res, err
		}
		// Maximize EI on a dense candidate grid + random restarts.
		bestX, bestEI := 0.0, -1.0
		for i := 0; i < 256; i++ {
			var x float64
			if i < 192 {
				x = float64((float64(i) + 0.5) / 192 * cfg.Hi)
			} else {
				x = float64(rng.Float64() * cfg.Hi)
			}
			mu, varr := g.predict(x)
			ei := expectedImprovement(mu, varr, res.BestY)
			if ei > bestEI {
				bestEI, bestX = ei, x
			}
		}
		if bestEI <= 1e-14 {
			break // converged: no expected improvement anywhere
		}
		eval(bestX)
	}
	return res, nil
}
