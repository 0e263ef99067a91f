// Package optim implements the numerical optimizer ZeRO-Offload runs on the
// CPU (paper Fig 1 phases 4-5): global-norm gradient clipping followed by
// the ADAM update. The math is bit-faithful FP32, because the DBA accuracy
// experiments depend on the real byte-level dynamics of the parameters.
package optim

import (
	"fmt"
	"math"

	"teco/internal/parallel"
)

// AdamConfig holds ADAM hyperparameters. Zero values select the PyTorch
// defaults used by the paper's fine-tuning recipes.
type AdamConfig struct {
	LR          float64 // learning rate (default 1e-3)
	Beta1       float64 // first-moment decay (default 0.9)
	Beta2       float64 // second-moment decay (default 0.999)
	Eps         float64 // numerical epsilon (default 1e-8)
	WeightDecay float64 // decoupled weight decay (default 0)
	// Workers runs the update over chunked goroutines (1 or 0: serial).
	// Purely a scheduling knob: the update is element-wise, so the result
	// is bit-identical at every worker count (asserted by the determinism
	// tests) and Workers is excluded from every config fingerprint.
	Workers int
}

func (c AdamConfig) withDefaults() AdamConfig {
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.Beta1 == 0 {
		c.Beta1 = 0.9
	}
	if c.Beta2 == 0 {
		c.Beta2 = 0.999
	}
	if c.Eps == 0 {
		c.Eps = 1e-8
	}
	return c
}

// Adam is an ADAM optimizer instance over a flat parameter vector. The
// optimizer states (m, v) are what ZeRO-Offload keeps in CPU memory.
type Adam struct {
	cfg  AdamConfig
	m, v []float32
	step int
}

// NewAdam builds an optimizer for n parameters. A non-positive n is
// returned as an error so a corrupted restore fails cleanly instead of
// crashing the process.
func NewAdam(n int, cfg AdamConfig) (*Adam, error) {
	if n <= 0 {
		return nil, fmt.Errorf("optim: %d parameters", n)
	}
	return &Adam{cfg: cfg.withDefaults(), m: make([]float32, n), v: make([]float32, n)}, nil
}

// MustAdam is NewAdam for statically known-good sizes; it panics on an
// invalid size.
func MustAdam(n int, cfg AdamConfig) *Adam {
	a, err := NewAdam(n, cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// StepCount returns the number of Step calls so far.
func (a *Adam) StepCount() int { return a.step }

// Step applies one ADAM update: params <- params - lr * m̂ / (sqrt(v̂)+eps).
// params and grads must have the optimizer's length; a mismatch (the
// signature of restoring a corrupted snapshot) is returned as an error
// before any state is touched.
func (a *Adam) Step(params, grads []float32) error {
	return a.StepFused(params, grads, 1, nil)
}

// StepFused is Step with the per-step tensor walks that surround the
// optimizer in a training loop folded into the same chunked pass, so the
// parameter, gradient and moment vectors are each traversed once per step
// instead of once per concern:
//
//   - scale != 1 first multiplies the chunk's gradients in place (the
//     global-norm clip's deferred scaling — the caller computes the norm,
//     the fused pass applies it), exactly as ClipGlobalNorm would have
//     before the update.
//   - epilogue, if non-nil, runs once per fixed-quantum chunk after that
//     chunk's elements are updated, with (c, lo, hi) as defined by
//     parallel.ChunkBounds. The trainer hangs its post-step scans there:
//     NaN/Inf guard, per-chunk tensor CRCs, dirty-byte distributions and
//     the previous-value copies. The epilogue may read params, grads and
//     the moment vectors within [lo, hi) only; chunks run concurrently, so
//     cross-chunk state must be per-chunk slots combined by the caller
//     afterwards (in ascending c for order-dependent folds like CRCs).
//
// Everything stays element-wise or chunk-local, so results are bit-identical
// to the unfused Step + separate passes at every worker count.
func (a *Adam) StepFused(params, grads []float32, scale float32, epilogue func(c, lo, hi int)) error {
	if len(params) != len(a.m) || len(grads) != len(a.m) {
		return fmt.Errorf("optim: step over %d/%d values, optimizer has %d", len(params), len(grads), len(a.m))
	}
	a.step++
	b1 := a.cfg.Beta1
	b2 := a.cfg.Beta2
	// Bias corrections.
	c1 := 1 - math.Pow(b1, float64(a.step))
	c2 := 1 - math.Pow(b2, float64(a.step))
	// The update is element-wise (no cross-element arithmetic), so chunked
	// goroutines over disjoint ranges produce the exact serial bits. The
	// serial path iterates the same chunk boundaries inline without
	// creating a closure — Step sits inside the trainer's zero-alloc
	// steady state.
	n := len(params)
	if nc := parallel.Chunks(n); parallel.HotResolve(a.cfg.Workers) <= 1 || nc <= 1 {
		for c := 0; c < nc; c++ {
			lo, hi := parallel.ChunkBounds(c, n)
			a.updateChunk(params, grads, scale, c1, c2, lo, hi)
			if epilogue != nil {
				epilogue(c, lo, hi)
			}
		}
		return nil
	}
	parallel.ForChunksIndexed(a.cfg.Workers, n, func(c, lo, hi int) {
		a.updateChunk(params, grads, scale, c1, c2, lo, hi)
		if epilogue != nil {
			epilogue(c, lo, hi)
		}
	})
	return nil
}

// updateChunk applies the deferred clip scale and the ADAM update to
// [lo, hi) — the chunk body both the serial and parallel paths of
// StepFused share.
func (a *Adam) updateChunk(params, grads []float32, scale float32, c1, c2 float64, lo, hi int) {
	b1 := a.cfg.Beta1
	b2 := a.cfg.Beta2
	lr := a.cfg.LR
	eps := a.cfg.Eps
	wd := a.cfg.WeightDecay
	if scale != 1 {
		for i := lo; i < hi; i++ {
			grads[i] *= scale
		}
	}
	for i := lo; i < hi; i++ {
		g := float64(grads[i])
		if wd != 0 {
			// Decoupled (AdamW-style) weight decay.
			params[i] -= float32(lr * wd * float64(params[i]))
		}
		m := float64(b1*float64(a.m[i])) + float64((1-b1)*g)
		v := float64(b2*float64(a.v[i])) + float64((1-b2)*g*g)
		a.m[i] = float32(m)
		a.v[i] = float32(v)
		mhat := m / c1
		vhat := v / c2
		params[i] -= float32(lr * mhat / (math.Sqrt(vhat) + eps))
	}
}

// Moments returns the live first/second moment vectors. Callers snapshot
// them by copying; mutating them corrupts the optimizer.
func (a *Adam) Moments() (m, v []float32) { return a.m, a.v }

// Restore overwrites the optimizer state from a checkpoint: moment vectors
// (copied in) and the step counter the bias corrections depend on. Length
// mismatches and negative step counts are rejected without touching state.
func (a *Adam) Restore(m, v []float32, step int) error {
	if len(m) != len(a.m) || len(v) != len(a.v) {
		return fmt.Errorf("optim: restore %d/%d moments into optimizer of %d", len(m), len(v), len(a.m))
	}
	if step < 0 {
		return fmt.Errorf("optim: restore negative step count %d", step)
	}
	copy(a.m, m)
	copy(a.v, v)
	a.step = step
	return nil
}

// FirstNonFiniteWorkers returns the index of the first NaN or Inf in x, or
// -1. The trainer scans parameters and optimizer moments with it after each
// ADAM step: a NaN produced by ADAM on corrupted bytes is a silent-data-
// corruption signal that must trigger rollback, not propagate. The scan
// runs over chunked goroutines and takes the minimum over per-chunk first
// hits, so the index returned is the serial one at every worker count.
func FirstNonFiniteWorkers(x []float32, workers int) int {
	return parallel.FirstIndex(workers, len(x), func(i int) bool {
		f := float64(x[i])
		return math.IsNaN(f) || math.IsInf(f, 0)
	})
}

// GlobalNorm returns the L2 norm of the gradient vector.
func GlobalNorm(grads []float32) float64 {
	var s float64
	for _, g := range grads {
		s += float64(float64(g) * float64(g))
	}
	return math.Sqrt(s)
}

// ClipGlobalNorm scales grads in place so their L2 norm is at most maxNorm
// (paper Fig 1 phase 4: "the gradients are clipped to be bounded within a
// certain range on CPU"). It returns the pre-clip norm.
func ClipGlobalNorm(grads []float32, maxNorm float64) float64 {
	norm, scale := ClipScale(grads, maxNorm)
	if scale != 1 {
		for i := range grads {
			grads[i] *= scale
		}
	}
	return norm
}

// ClipScale is the deferred form of ClipGlobalNorm: it computes the global
// norm (the one cross-element reduction, which must complete before any
// element is scaled) and returns the clip factor to apply — 1 when no
// clipping is needed — without touching grads. StepFused applies the factor
// chunk-by-chunk inside the fused pass; the element-wise multiply commutes
// with chunking, so the result is bit-identical to ClipGlobalNorm + Step.
func ClipScale(grads []float32, maxNorm float64) (norm float64, scale float32) {
	norm = GlobalNorm(grads)
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 {
		return norm, 1
	}
	return norm, float32(maxNorm / norm)
}
