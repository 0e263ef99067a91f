package realtrain

import (
	"teco/internal/checkpoint"
	"teco/internal/parallel"
)

// guardTensors names the SDC-guarded resident tensors in the fixed order
// verifySums reports them; the g* constants index sdcGuard's per-tensor
// arrays in the same order.
var guardTensors = [...]string{"master", "compute", "adam.m", "adam.v"}

const (
	gMaster = iota
	gCompute
	gAdamM
	gAdamV
	nGuard
)

// sdcGuard is the trainer-private silent-data-corruption record: one
// CRC-32C (checkpoint.GuardSum) per fixed-quantum parallel chunk of each
// resident tensor. The sums never leave the process — they are not in the
// snapshot format or any fingerprint — so nothing has to fold them into a
// whole-tensor value: a pass records or compares chunk by chunk, and the
// fused ADAM epilogue writes the chunks it has just updated straight into
// sums. All four tensors have the model's length, so one chunk loop covers
// them. The chunk closures are built once and read their inputs from bufs,
// so a guard pass allocates nothing (the steady-state step is zero-alloc).
type sdcGuard struct {
	sums  [nGuard][]uint32
	valid bool // sums describe the resident tensors

	bufs [nGuard][]float32 // tensors of the pass in flight; nil = skip
	// miss is verify's per-chunk result: the lowest mismatching tensor
	// index, nGuard when the chunk is clean.
	miss           []uint8
	record, verify func(c, lo, hi int)
}

func newSDCGuard(n int) *sdcGuard {
	nc := parallel.Chunks(n)
	g := &sdcGuard{miss: make([]uint8, nc)}
	for k := range g.sums {
		g.sums[k] = make([]uint32, nc)
	}
	g.record = func(c, lo, hi int) {
		for k, v := range g.bufs {
			if v != nil {
				g.sums[k][c] = checkpoint.GuardSum(v[lo:hi])
			}
		}
	}
	g.verify = func(c, lo, hi int) {
		g.miss[c] = nGuard
		for k, v := range g.bufs {
			if checkpoint.GuardSum(v[lo:hi]) != g.sums[k][c] {
				g.miss[c] = uint8(k)
				return
			}
		}
	}
	return g
}

// guarded returns the four resident tensors in guardTensors order.
func (t *Trainer) guarded() [nGuard][]float32 {
	am, av := t.ad.Moments()
	return [nGuard][]float32{gMaster: t.master, gCompute: t.compute, gAdamM: am, gAdamV: av}
}

// recordSums refreshes every chunk sum after legitimate mutations.
func (t *Trainer) recordSums() {
	if !t.cfg.SDCChecks {
		return
	}
	t.recordChunks(t.guarded())
}

// recordSumsFused refreshes the record at the end of a fused step: the
// master and moment chunks were written by the fused epilogue as ADAM
// produced them (no extra tensor walk); only the compute copy — written by
// the merge after the fused pass — needs a fresh pass.
func (t *Trainer) recordSumsFused() {
	if !t.cfg.SDCChecks {
		return
	}
	t.recordChunks([nGuard][]float32{gCompute: t.compute})
}

func (t *Trainer) recordChunks(bufs [nGuard][]float32) {
	g := t.guard
	g.bufs = bufs
	parallel.ForChunksIndexed(t.cfg.Workers, len(t.master), g.record)
	g.valid = true
}

// verifySums compares every chunk of every resident tensor against its
// recorded sum — the guard that catches out-of-band corruption (a poisoned
// line that slipped past the link CRC, a bit flip in host memory) before
// the step consumes it. The reported tensor is the first mismatch in
// guardTensors order, independent of chunk scheduling.
func (t *Trainer) verifySums() error {
	g := t.guard
	if !t.cfg.SDCChecks || !g.valid {
		return nil
	}
	g.bufs = t.guarded()
	parallel.ForChunksIndexed(t.cfg.Workers, len(t.master), g.verify)
	first := uint8(nGuard)
	for _, k := range g.miss {
		if k < first {
			first = k
		}
	}
	if first < nGuard {
		return &CorruptionError{Tensor: guardTensors[first], Index: -1}
	}
	return nil
}
