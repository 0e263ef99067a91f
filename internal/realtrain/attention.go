package realtrain

import (
	"math"
	"math/rand"

	"teco/internal/kernels"
)

// Attention is a single-head self-attention classifier — the
// transformer-family counterpart of the MLP proxy, so the accuracy
// experiments can run on the same architecture class as the paper's
// workloads:
//
//	tokens -> Emb -> self-attention (softmax(QK^T/sqrt(D)) V) ->
//	mean-pool -> logits.
//
// The whole model is one flat FP32 vector for the DBA machinery, and the
// backward pass is hand-derived (validated against finite differences).
// All dense products route through the internal/kernels blocked primitives,
// whose fixed accumulation order keeps the results bit-identical to the
// original naive loops (see the kernels package doc).
type Attention struct {
	Vocab, Dim, Classes int
	Params              []float32

	// sc holds the model's scratch arena and activation state, so the
	// per-example hot loops run allocation-free in steady state. Because
	// of it an Attention is not safe for concurrent use — each trainer
	// owns its own instance. Slices returned by Forward (probs) alias the
	// arena and are valid until the next call on this instance.
	sc *attnScratch
}

// attnScratch is the per-instance reusable storage: a bump arena that is
// Reset at the top of every forward pass, plus the activation state whose
// slices are re-carved from the arena each example.
type attnScratch struct {
	arena kernels.Arena
	st    attnState
}

func (m *Attention) scratch() *attnScratch {
	if m.sc == nil {
		m.sc = &attnScratch{}
	}
	return m.sc
}

// NewAttention builds the model with scaled random initialization.
func NewAttention(vocab, dim, classes int, seed int64) *Attention {
	m := &Attention{Vocab: vocab, Dim: dim, Classes: classes}
	m.Params = make([]float32, m.NumParams())
	rng := rand.New(rand.NewSource(seed))
	emb, wq, wk, wv, wo, _ := m.views(m.Params)
	for i := range emb {
		emb[i] = 0.5 * float32(rng.NormFloat64())
	}
	s := float32(math.Sqrt(1 / float64(dim)))
	for _, w := range [][]float32{wq, wk, wv} {
		for i := range w {
			w[i] = s * float32(rng.NormFloat64())
		}
	}
	for i := range wo {
		wo[i] = s * float32(rng.NormFloat64())
	}
	return m
}

// NumParams returns the flat parameter count:
// Emb + Wq + Wk + Wv + Wout + bout.
func (m *Attention) NumParams() int {
	d := m.Dim
	return m.Vocab*d + 3*d*d + d*m.Classes + m.Classes
}

func (m *Attention) views(p []float32) (emb, wq, wk, wv, wo, bo []float32) {
	d := m.Dim
	o := 0
	emb = p[o : o+m.Vocab*d]
	o += m.Vocab * d
	wq = p[o : o+d*d]
	o += d * d
	wk = p[o : o+d*d]
	o += d * d
	wv = p[o : o+d*d]
	o += d * d
	wo = p[o : o+d*m.Classes]
	o += d * m.Classes
	bo = p[o : o+m.Classes]
	return
}

// attnState keeps forward activations for backward. Row matrices are arena
// views; kF/vF are the flat row-major backings of k and v for the row-dot
// kernels.
type attnState struct {
	x       [][]float32 // T x D token embeddings
	q, k, v [][]float32 // T x D projections
	kF, vF  []float32   // flat backings of k, v
	attn    [][]float32 // T x T softmax rows
	h       [][]float32 // T x D attention output
	pooled  []float32   // D mean-pooled
	probs   []float32
}

// forward runs the model on one token sequence. It Resets the arena, so
// activations (and any backward temps carved after it) live exactly until
// the next forward on this instance.
func (m *Attention) forward(params []float32, tok []int) *attnState {
	emb, wq, wk, wv, wo, bo := m.views(params)
	d := m.Dim
	T := len(tok)
	sc := m.scratch()
	sc.arena.Reset()
	st := &sc.st
	_, st.x = sc.arena.RowsFlat(T, d)
	_, st.q = sc.arena.RowsFlat(T, d)
	st.kF, st.k = sc.arena.RowsFlat(T, d)
	st.vF, st.v = sc.arena.RowsFlat(T, d)
	_, st.attn = sc.arena.RowsFlat(T, T)
	_, st.h = sc.arena.RowsFlat(T, d)
	st.pooled = sc.arena.Alloc(d)
	for t, id := range tok {
		copy(st.x[t], emb[id*d:(id+1)*d])
	}
	// Q/K/V projections: one blocked matvec per token row (rows zeroed by
	// the arena, so AddMatVec's accumulate is an assign).
	for t := 0; t < T; t++ {
		kernels.AddMatVec(st.q[t], st.x[t], wq, d, d)
		kernels.AddMatVec(st.k[t], st.x[t], wk, d, d)
		kernels.AddMatVec(st.v[t], st.x[t], wv, d, d)
	}
	scale := float32(1 / math.Sqrt(float64(d)))
	for t := 0; t < T; t++ {
		row := st.attn[t]
		// row[u] = q[t]·k[u], each a single ascending-i chain.
		kernels.DotRowsInto(row, st.q[t], st.kF, T, d)
		for u := 0; u < T; u++ {
			row[u] *= scale
		}
		softmaxInto(row, row)
	}
	for t := 0; t < T; t++ {
		// h[t] = attn[t]·V, additions over ascending u per output.
		kernels.AddMatVec(st.h[t], st.attn[t], st.vF, T, d)
		for j := 0; j < d; j++ {
			st.pooled[j] += st.h[t][j] / float32(T)
		}
	}
	logits := sc.arena.Alloc(m.Classes)
	kernels.MatVecInto(logits, bo, st.pooled, wo, d, m.Classes)
	st.probs = softmaxInto(sc.arena.Alloc(m.Classes), logits)
	return st
}

// Forward returns class probabilities for one example. The returned slice
// aliases the model's scratch arena and is valid until the next call on
// this instance.
func (m *Attention) Forward(params []float32, tok []int) []float32 {
	return m.forward(params, tok).probs
}

// LossAndGrad computes mean cross-entropy over a minibatch and the full
// gradient into grads (zeroed first). Returns the loss.
func (m *Attention) LossAndGrad(params []float32, ds *Dataset, batch []int, grads []float32) float64 {
	for i := range grads {
		grads[i] = 0
	}
	_, wq, wk, wv, wo, _ := m.views(params)
	gemb, gwq, gwk, gwv, gwo, gbo := m.views(grads)
	d := m.Dim
	var loss float64
	inv := float32(1.0 / float64(len(batch)))
	scale := float32(1 / math.Sqrt(float64(d)))

	for _, idx := range batch {
		tok := ds.TrainTok[idx]
		y := ds.TrainY[idx]
		T := len(tok)
		st := m.forward(params, tok)
		sc := m.sc
		p := float64(st.probs[y])
		if p < 1e-12 {
			p = 1e-12
		}
		loss += -math.Log(p)

		// Classifier backward: dz first, then the fused rank-1 + row-dot
		// kernel over Wout (dPooled[j] is a single ascending-c chain,
		// exactly the order of the old c-outer loop).
		dz := sc.arena.Alloc(m.Classes)
		for c := 0; c < m.Classes; c++ {
			dzc := st.probs[c] * inv
			if c == y {
				dzc -= inv
			}
			dz[c] = dzc
			gbo[c] += dzc
		}
		dPooled := sc.arena.Alloc(d)
		kernels.BackProjSet(gwo, dPooled, st.pooled, dz, wo, d, m.Classes)
		// Mean pool backward: dH[t] = dPooled / T.
		dH := sc.arena.Rows(T, d)
		for t := 0; t < T; t++ {
			for j := 0; j < d; j++ {
				dH[t][j] = dPooled[j] / float32(T)
			}
		}
		// H = A V: dA[t][u] = dH[t]·v[u] (ascending-j chain),
		// dV[u] += attn[t][u]·dH[t] accumulated over ascending t.
		dA := sc.arena.Rows(T, T)
		dV := sc.arena.Rows(T, d)
		for t := 0; t < T; t++ {
			kernels.DotRowsInto(dA[t], dH[t], st.vF, T, d)
			for u := 0; u < T; u++ {
				kernels.Axpy(dV[u], st.attn[t][u], dH[t])
			}
		}
		// Softmax backward per row -> dScores, then Q/K.
		dQ := sc.arena.Rows(T, d)
		dK := sc.arena.Rows(T, d)
		for t := 0; t < T; t++ {
			var dot float32
			for u := 0; u < T; u++ {
				dot += dA[t][u] * st.attn[t][u]
			}
			for u := 0; u < T; u++ {
				dsc := st.attn[t][u] * (dA[t][u] - dot) * scale
				kernels.Axpy(dQ[t], dsc, st.k[u])
				kernels.Axpy(dK[u], dsc, st.q[t])
			}
		}
		// Projections: P = X W  =>  dW += X^T dP, dX += dP W^T, fused per
		// token row by the backward kernel.
		dX := sc.arena.Rows(T, d)
		for _, bp := range [3]struct {
			dP [][]float32
			w  []float32
			gw []float32
		}{{dQ, wq, gwq}, {dK, wk, gwk}, {dV, wv, gwv}} {
			for t := 0; t < T; t++ {
				kernels.BackProjAdd(bp.gw, dX[t], st.x[t], bp.dP[t], bp.w, d, d)
			}
		}
		// Embedding rows.
		for t, id := range tok {
			base := id * d
			for i := 0; i < d; i++ {
				gemb[base+i] += dX[t][i]
			}
		}
	}
	return loss / float64(len(batch))
}
