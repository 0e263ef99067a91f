// Package optim implements the numerical optimizer ZeRO-Offload runs on the
// CPU (paper Fig 1 phases 4-5): global-norm gradient clipping followed by
// the ADAM update. The math is bit-faithful FP32, because the DBA accuracy
// experiments depend on the real byte-level dynamics of the parameters.
//
// The update is element-wise in float64 with three divides and a square
// root per parameter. On amd64 with AVX2 (the probe of package kernels) it
// runs four float64 lanes at a time in adam_amd64.s. IEEE-754 divide and
// square root are correctly rounded and the assembly performs the Go
// loop's operations in its order with no fused multiply-add, so the lanes
// produce the bits of updateGeneric, the Go reference and the only path
// elsewhere (TestAdamLanesMatchScalar is the oracle).
package optim

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"teco/internal/parallel"
)

// The moment decays and epsilon are the PyTorch defaults the paper's
// fine-tuning recipes use. They are typed constants so that every
// expression over them, such as 1 - beta1, rounds to float64 after each
// operation exactly as the same arithmetic on variables does (an untyped
// 1 - 0.9 would be the exact 0.1, one ulp away from the runtime value).
const (
	beta1 float64 = 0.9   // first-moment decay
	beta2 float64 = 0.999 // second-moment decay
	eps   float64 = 1e-8  // numerical epsilon
)

// AdamConfig holds ADAM hyperparameters. Zero values select the PyTorch
// defaults used by the paper's fine-tuning recipes.
type AdamConfig struct {
	LR          float64 // learning rate (default 1e-3)
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
	k := newAdamStep(a.cfg, a.step, scale)
	// The update is element-wise (no cross-element arithmetic), so chunked
	// goroutines over disjoint ranges produce the exact serial bits. The
	// serial path iterates the same chunk boundaries inline without
	// creating a closure — Step sits inside the trainer's zero-alloc
	// steady state.
	n := len(params)
	if nc := parallel.Chunks(n); parallel.HotResolve(a.cfg.Workers) <= 1 || nc <= 1 {
		for c := 0; c < nc; c++ {
			lo, hi := parallel.ChunkBounds(c, n)
			update(params[lo:hi], grads[lo:hi], a.m[lo:hi], a.v[lo:hi], k)
			if epilogue != nil {
				epilogue(c, lo, hi)
			}
		}
		return nil
	}
	parallel.ForChunksIndexed(a.cfg.Workers, n, func(c, lo, hi int) {
		update(params[lo:hi], grads[lo:hi], a.m[lo:hi], a.v[lo:hi], k)
		if epilogue != nil {
			epilogue(c, lo, hi)
		}
	})
	return nil
}

// adamStep is what one ADAM step applies to every element: the
// hyperparameters with 1 - beta precomputed, the step's bias corrections
// c1 and c2, lr·wd for the decay, and the deferred clip scale. The
// assembly reads it through the field offsets of go_asm.h.
type adamStep struct {
	b1, ob1, b2, ob2 float64 // beta1, 1-beta1, beta2, 1-beta2
	c1, c2           float64 // bias corrections
	lr, eps, lrwd    float64 // lrwd = lr·wd
	scale            float32
	scaled           bool // scale != 1
	decay            bool // wd != 0
}

func newAdamStep(cfg AdamConfig, step int, scale float32) adamStep {
	return adamStep{
		b1: beta1, ob1: 1 - beta1, b2: beta2, ob2: 1 - beta2,
		// Bias corrections.
		c1: 1 - math.Pow(beta1, float64(step)),
		c2: 1 - math.Pow(beta2, float64(step)),
		lr: cfg.LR, eps: eps, lrwd: cfg.LR * cfg.WeightDecay,
		scale: scale, scaled: scale != 1, decay: cfg.WeightDecay != 0,
	}
}

// updateGeneric is the Go reference of the update over equal-length
// p, g, m and v (one chunk, or its tail after the vector body): the
// deferred clip scale first multiplies the gradients, then each element
// takes the decoupled decay (if any) and the ADAM update. Every operation
// is rounded where it is written; the vector body must produce these bits.
func updateGeneric(p, g, m, v []float32, k adamStep) {
	g = g[:len(p)]
	m = m[:len(p)]
	v = v[:len(p)]
	if k.scaled {
		for i := range g {
			g[i] *= k.scale
		}
	}
	for i := range p {
		gi := float64(g[i])
		if k.decay {
			// Decoupled (AdamW-style) weight decay. It stays a separate,
			// skipped step: p - float32(lr·0·p) would turn -0 into +0
			// and ±Inf into NaN.
			p[i] -= float32(k.lrwd * float64(p[i]))
		}
		mi := float64(k.b1*float64(m[i])) + float64(k.ob1*gi)
		vi := float64(k.b2*float64(v[i])) + float64(k.ob2*gi*gi)
		m[i] = float32(mi)
		v[i] = float32(vi)
		mhat := mi / k.c1
		vhat := vi / k.c2
		p[i] -= float32(k.lr * mhat / (math.Sqrt(vhat) + k.eps))
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

// GlobalNorm returns the L2 norm of the gradient vector: the square root
// of one float64 sum of squares in element order. Fine-tuning gradients are
// mostly exact zeros (the embedding rows a batch does not touch), so the
// chain skips every 8-word block whose words are all ±0: s starts at +0 and
// only ever adds squares (never −0), so s + (±0)² is s bit for bit, NaN and
// Inf included. One OR over the block's bits with the sign bits cleared
// tests all eight at once (four 8-byte reads through a byte view, which
// has no alignment to keep); any other block adds its eight squares in
// order. TestGlobalNormMatchesChain holds it to the plain chain's bits.
func GlobalNorm(grads []float32) float64 {
	var s float64
	i := 0
	if len(grads) >= 8 {
		raw := unsafe.Slice((*byte)(unsafe.Pointer(&grads[0])), 4*len(grads))
		for ; i+8 <= len(grads); i += 8 {
			w := raw[4*i : 4*i+32 : 4*i+32]
			if (binary.NativeEndian.Uint64(w)|binary.NativeEndian.Uint64(w[8:])|
				binary.NativeEndian.Uint64(w[16:])|binary.NativeEndian.Uint64(w[24:]))&^(1<<63|1<<31) == 0 {
				continue
			}
			for _, g := range grads[i : i+8] {
				s += float64(float64(g) * float64(g))
			}
		}
	}
	for _, g := range grads[i:] {
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
