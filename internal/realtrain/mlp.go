package realtrain

import (
	"math"
	"math/rand"

	"teco/internal/kernels"
)

// MLP is an embedding + two-layer softmax classifier with a flat parameter
// vector, so the whole model can ride the tensor/DBA machinery as one
// buffer:
//
//	tokens -> mean(Emb[tok]) -> ReLU(x W1 + b1) -> W2 + b2 -> softmax.
//
// The embedding table gives the model the sparse-update structure of real
// transformer fine-tuning: only rows appearing in a batch receive
// gradients, so a large share of parameters is bit-identical across
// consecutive steps (paper §III, "44.5% of parameters do not change").
type MLP struct {
	Vocab, Dim, Hidden, Classes int
	// Params is the flat FP32 parameter vector:
	// [Emb (Vocab*Dim) | W1 (Dim*Hidden) | b1 | W2 (Hidden*Classes) | b2].
	Params []float32

	// sc holds the preallocated forward/backward work buffers, so the
	// per-example hot loops run allocation-free. Because of it an MLP is
	// not safe for concurrent use — each trainer owns its own instance.
	sc *mlpScratch
}

// mlpScratch is the per-instance buffer set for one forward/backward pass.
// Slices returned by Forward (probs) alias these buffers and are valid
// until the next call on the same MLP.
type mlpScratch struct {
	x, h, z, probs []float32
	dz, dh, dx     []float32
	act            []int // ReLU-active hidden units, compacted per example
}

func (m *MLP) scratch() *mlpScratch {
	if m.sc == nil {
		m.sc = &mlpScratch{
			x:     make([]float32, m.Dim),
			h:     make([]float32, m.Hidden),
			z:     make([]float32, m.Classes),
			probs: make([]float32, m.Classes),
			dz:    make([]float32, m.Classes),
			dh:    make([]float32, m.Hidden),
			dx:    make([]float32, m.Dim),
			act:   make([]int, 0, m.Hidden),
		}
	}
	return m.sc
}

// NewMLP builds a model with Kaiming-style random initialization.
func NewMLP(vocab, dim, hidden, classes int, seed int64) *MLP {
	m := &MLP{Vocab: vocab, Dim: dim, Hidden: hidden, Classes: classes}
	m.Params = make([]float32, m.NumParams())
	rng := rand.New(rand.NewSource(seed))
	emb, w1, _, w2, _ := m.views(m.Params)
	for i := range emb {
		emb[i] = 0.5 * float32(rng.NormFloat64())
	}
	s1 := float32(math.Sqrt(2 / float64(dim)))
	for i := range w1 {
		w1[i] = s1 * float32(rng.NormFloat64())
	}
	s2 := float32(math.Sqrt(2 / float64(hidden)))
	for i := range w2 {
		w2[i] = s2 * float32(rng.NormFloat64())
	}
	return m
}

// NumParams returns the flat parameter count.
func (m *MLP) NumParams() int {
	return m.Vocab*m.Dim + m.Dim*m.Hidden + m.Hidden + m.Hidden*m.Classes + m.Classes
}

// views slices a flat vector into (Emb, W1, b1, W2, b2).
func (m *MLP) views(p []float32) (emb, w1, b1, w2, b2 []float32) {
	o := 0
	emb = p[o : o+m.Vocab*m.Dim]
	o += m.Vocab * m.Dim
	w1 = p[o : o+m.Dim*m.Hidden]
	o += m.Dim * m.Hidden
	b1 = p[o : o+m.Hidden]
	o += m.Hidden
	w2 = p[o : o+m.Hidden*m.Classes]
	o += m.Hidden * m.Classes
	b2 = p[o : o+m.Classes]
	return
}

// embed computes the mean embedding of a token bag into x.
func (m *MLP) embed(params []float32, tok []int, x []float32) []float32 {
	emb, _, _, _, _ := m.views(params)
	for d := range x {
		x[d] = 0
	}
	for _, t := range tok {
		base := t * m.Dim
		for d := 0; d < m.Dim; d++ {
			x[d] += emb[base+d]
		}
	}
	inv := float32(1.0 / float64(len(tok)))
	for d := range x {
		x[d] *= inv
	}
	return x
}

// Forward computes class probabilities for one example using the given
// parameter vector (which may be the DBA-merged accelerator copy). The
// returned slice aliases the MLP's scratch buffers and is valid until the
// next call on this instance.
func (m *MLP) Forward(params []float32, tok []int) []float32 {
	probs, _, _ := m.forwardHidden(params, tok)
	return probs
}

// forwardHidden runs the forward pass with both dense layers on the shared
// blocked kernels (internal/kernels). Each accumulator still receives its
// additions in the original index order — h[j] over ascending d, z[c] over
// ascending j — so the FP32 results are bit-identical to the naive
// column-major loops, just without the Hidden-strided (resp.
// Classes-strided) weight walks.
func (m *MLP) forwardHidden(params []float32, tok []int) (probs, hidden, x []float32) {
	_, w1, b1, w2, b2 := m.views(params)
	sc := m.scratch()
	x = m.embed(params, tok, sc.x)
	h := sc.h
	kernels.MatVecInto(h, b1, x, w1, m.Dim, m.Hidden)
	for j, s := range h {
		if s < 0 {
			h[j] = 0
		}
	}
	z := sc.z
	kernels.MatVecInto(z, b2, h, w2, m.Hidden, m.Classes)
	return softmaxInto(sc.probs, z), h, x
}

func softmaxInto(out, z []float32) []float32 {
	maxZ := z[0]
	for _, v := range z[1:] {
		if v > maxZ {
			maxZ = v
		}
	}
	var sum float64
	for i, v := range z {
		e := math.Exp(float64(v - maxZ))
		out[i] = float32(e)
		sum += e
	}
	for i := range out {
		out[i] = float32(float64(out[i]) / sum)
	}
	return out
}

// LossAndGrad computes mean cross-entropy loss over a minibatch and the
// gradient with respect to params, written into grads (zeroed first).
// Returns the loss. Embedding gradients are sparse: only rows whose tokens
// appear in the batch are touched.
func (m *MLP) LossAndGrad(params []float32, ds *Dataset, batch []int, grads []float32) float64 {
	for i := range grads {
		grads[i] = 0
	}
	gemb, gw1, gb1, gw2, gb2 := m.views(grads)
	_, w1, _, w2, _ := m.views(params)
	sc := m.scratch()
	var loss float64
	inv := float32(1.0 / float64(len(batch)))
	for _, idx := range batch {
		tok := ds.TrainTok[idx]
		y := ds.TrainY[idx]
		probs, h, x := m.forwardHidden(params, tok)
		p := float64(probs[y])
		if p < 1e-12 {
			p = 1e-12
		}
		loss += -math.Log(p)
		// dz = probs - onehot(y), scaled by 1/B.
		dz := sc.dz
		for c := range dz {
			dz[c] = probs[c] * inv
		}
		dz[y] -= inv
		// W2, b2 gradients and hidden backprop via the fused backward
		// kernel (rank-1 gw2 update + ascending-c dh chain per row).
		dh := sc.dh
		kernels.BackProjSet(gw2, dh, h, dz, w2, m.Hidden, m.Classes)
		for c := 0; c < m.Classes; c++ {
			gb2[c] += dz[c]
		}
		// ReLU gate: compact the active hidden units once, then walk W1
		// row-major. Every accumulator keeps its original addition order —
		// gw1[d*H+j] receives exactly one term per example and dx[d] sums
		// over the active j in ascending order either way — so the
		// interchange is bit-identical to the j-outer strided loop.
		act := sc.act[:0]
		for j := 0; j < m.Hidden; j++ {
			if h[j] <= 0 {
				continue
			}
			gb1[j] += dh[j]
			act = append(act, j)
		}
		sc.act = act
		dx := sc.dx
		for d := 0; d < m.Dim; d++ {
			base := d * m.Hidden
			gw1row := gw1[base : base+m.Hidden]
			w1row := w1[base : base+m.Hidden]
			xd := x[d]
			var s float32
			for _, j := range act {
				dhj := dh[j]
				gw1row[j] += float32(xd * dhj)
				s += float32(w1row[j] * dhj)
			}
			dx[d] = s
		}
		tokInv := float32(1.0 / float64(len(tok)))
		for _, t := range tok {
			base := t * m.Dim
			for d := 0; d < m.Dim; d++ {
				gemb[base+d] += float32(dx[d] * tokInv)
			}
		}
	}
	return loss / float64(len(batch))
}
