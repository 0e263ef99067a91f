package realtrain

import (
	"math"

	"teco/internal/checkpoint"
	"teco/internal/parallel"
	"teco/internal/tensor"
)

// fusedScratch holds the per-chunk slots the fused ADAM epilogue writes:
// the post-update NaN/Inf first hits and the sampled byte-change
// distributions (the guard sums go straight into the trainer's sdcGuard).
// One slot per fixed-quantum parallel chunk, indexed by the chunk index the
// epilogue receives; everything is preallocated once per trainer, so the
// steady-state step makes no allocations. The slots are combined in
// ascending chunk order after the pass — min for first-hit indices, integer
// adds for distributions — all exact, so results are bit-identical to the
// standalone passes at every worker count.
type fusedScratch struct {
	n int // tensor length the chunk layout was sized for

	// Per-step inputs the epilogue reads, set by Step before the fused
	// pass. They live here (rather than in a fresh closure each step) so
	// the steady-state step allocates nothing: epi is built once and
	// reused.
	sdc, sample bool
	am, av      []float32
	epi         func(c, lo, hi int)

	nfMaster     []int
	pDist, gDist []tensor.Distribution
}

// fused returns the trainer's fused-epilogue scratch, sized for n words.
func (t *Trainer) fused(n int) *fusedScratch {
	if t.fs == nil || t.fs.n != n {
		nc := parallel.Chunks(n)
		fs := &fusedScratch{
			n:        n,
			nfMaster: make([]int, nc),
			pDist:    make([]tensor.Distribution, nc),
			gDist:    make([]tensor.Distribution, nc),
		}
		fs.epi = func(c, lo, hi int) { t.fusedEpilogue(fs, c, lo, hi) }
		t.fs = fs
	}
	return t.fs
}

// fusedEpilogue is the per-chunk tail of the fused ADAM pass: the
// post-update NaN/Inf guard, the chunk's guard sums, the sampled
// byte-change distributions (observed before the baselines are
// clobbered), and the previous-value copies — each of which used to be a
// standalone whole-tensor walk.
func (t *Trainer) fusedEpilogue(fs *fusedScratch, c, lo, hi int) {
	if fs.sdc {
		fs.nfMaster[c] = scanNonFinite(t.master, lo, hi)
		t.guard.sums[gMaster][c] = checkpoint.GuardSum(t.master[lo:hi])
		t.guard.sums[gAdamM][c] = checkpoint.GuardSum(fs.am[lo:hi])
		t.guard.sums[gAdamV][c] = checkpoint.GuardSum(fs.av[lo:hi])
	}
	if fs.sample {
		var pd, gd tensor.Distribution
		for i := lo; i < hi; i++ {
			pd.Observe(t.prevMaster[i], t.master[i])
		}
		for i := lo; i < hi; i++ {
			gd.Observe(t.prevGrads[i], t.grads[i])
		}
		fs.pDist[c] = pd
		fs.gDist[c] = gd
	}
	copy(t.prevMaster[lo:hi], t.master[lo:hi])
	copy(t.prevGrads[lo:hi], t.grads[lo:hi])
}

// firstNonFinite folds the per-chunk first-hit slots: ascending chunk
// order, so the result is the lowest offending index overall — exactly
// optim.FirstNonFiniteWorkers' answer.
func (fs *fusedScratch) firstNonFinite() int {
	for _, hit := range fs.nfMaster {
		if hit >= 0 {
			return hit
		}
	}
	return -1
}

// foldDist sums per-chunk distributions in chunk order (integer adds) —
// the same combine dba.ScanChanged performs.
func foldDist(parts []tensor.Distribution) tensor.Distribution {
	var total tensor.Distribution
	for i := range parts {
		total.Add(parts[i])
	}
	return total
}

// scanNonFinite returns the first NaN/Inf index in x[lo:hi) (absolute), or
// -1 — the chunk-local body of the post-ADAM master guard.
func scanNonFinite(x []float32, lo, hi int) int {
	for i := lo; i < hi; i++ {
		f := float64(x[i])
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return i
		}
	}
	return -1
}
