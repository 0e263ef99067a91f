package realtrain

import (
	"math"
	"math/rand"

	"teco/internal/kernels"
)

// LayerStack is the real N-layer transformer proxy: the single-head
// attention block and the MLP block that already exist as standalone
// classifiers, composed into an explicit residual layer sequence —
//
//	tokens -> Emb -> N x [ x + attn(x) ; x + mlp(x) ] -> mean-pool -> logits
//
// — so the repo trains the workload shape the paper's per-layer offload
// scheduling targets (core.StepLayered prices that schedule). The whole
// model stays one flat FP32 vector for the DBA machinery: the embedding,
// then each block's five matrices, then the classifier head. The backward
// pass is hand-derived and validated against finite differences
// (layerstack_test.go).
//
// All dense products route through the internal/kernels blocked primitives;
// residual sums are computed into a zeroed temp and folded with one final
// addition, so every FP32 result keeps the original naive loop's rounding
// chain bit for bit. Like the other proxies a LayerStack owns scratch
// storage and is not safe for concurrent use.
type LayerStack struct {
	Vocab, Dim, Classes, Layers int
	Params                      []float32

	sc *stackScratch
}

// stackScratch is the per-instance reusable storage: a bump arena Reset at
// the top of every forward pass plus the activation trace re-carved from it.
type stackScratch struct {
	arena kernels.Arena
	st    stackState
}

func (m *LayerStack) scratch() *stackScratch {
	if m.sc == nil {
		m.sc = &stackScratch{}
	}
	if cap(m.sc.st.blocks) < m.Layers {
		m.sc.st.blocks = make([]stackBlockState, m.Layers)
	}
	m.sc.st.blocks = m.sc.st.blocks[:m.Layers]
	return m.sc
}

// NewLayerStack builds an n-layer stack with scaled random initialization.
// The per-block output projections (Wv's successor path and the MLP's
// second matrix) are damped by 1/sqrt(2n), the GPT-2 residual-scaling rule,
// so activations stay bounded at any depth.
func NewLayerStack(vocab, dim, classes, layers int, seed int64) *LayerStack {
	if layers < 1 {
		layers = 1
	}
	m := &LayerStack{Vocab: vocab, Dim: dim, Classes: classes, Layers: layers}
	m.Params = make([]float32, m.NumParams())
	rng := rand.New(rand.NewSource(seed))
	emb := m.emb(m.Params)
	for i := range emb {
		emb[i] = 0.5 * float32(rng.NormFloat64())
	}
	s := float32(math.Sqrt(1 / float64(dim)))
	s1 := float32(math.Sqrt(2 / float64(dim)))
	damp := s / float32(math.Sqrt(2*float64(layers)))
	for l := 0; l < layers; l++ {
		wq, wk, wv, wf1, wf2 := m.block(m.Params, l)
		for _, w := range [][]float32{wq, wk} {
			for i := range w {
				w[i] = s * float32(rng.NormFloat64())
			}
		}
		for i := range wv {
			wv[i] = damp * float32(rng.NormFloat64())
		}
		for i := range wf1 {
			wf1[i] = s1 * float32(rng.NormFloat64())
		}
		for i := range wf2 {
			wf2[i] = damp * float32(rng.NormFloat64())
		}
	}
	wo, _ := m.head(m.Params)
	for i := range wo {
		wo[i] = s * float32(rng.NormFloat64())
	}
	return m
}

// blockParams is the flat parameter count of one layer:
// Wq + Wk + Wv (attention) and Wf1 + Wf2 (the dim->dim MLP sublayer).
func (m *LayerStack) blockParams() int { return 5 * m.Dim * m.Dim }

// NumParams returns the flat parameter count:
// Emb + N blocks + classifier head.
func (m *LayerStack) NumParams() int {
	return m.Vocab*m.Dim + m.Layers*m.blockParams() + m.Dim*m.Classes + m.Classes
}

// Parameters returns the stack's flat parameter vector.
func (m *LayerStack) Parameters() []float32 { return m.Params }

func (m *LayerStack) emb(p []float32) []float32 { return p[:m.Vocab*m.Dim] }

// block slices layer l's five weight matrices out of a flat vector.
func (m *LayerStack) block(p []float32, l int) (wq, wk, wv, wf1, wf2 []float32) {
	d := m.Dim
	o := m.Vocab*d + l*m.blockParams()
	wq = p[o : o+d*d]
	o += d * d
	wk = p[o : o+d*d]
	o += d * d
	wv = p[o : o+d*d]
	o += d * d
	wf1 = p[o : o+d*d]
	o += d * d
	wf2 = p[o : o+d*d]
	return
}

func (m *LayerStack) head(p []float32) (wo, bo []float32) {
	o := m.Vocab*m.Dim + m.Layers*m.blockParams()
	wo = p[o : o+m.Dim*m.Classes]
	o += m.Dim * m.Classes
	bo = p[o : o+m.Classes]
	return
}

// stackBlockState keeps one block's forward activations for backward.
// Matrices are arena row views; the *F slices are flat row-major backings
// for the row-dot kernels.
type stackBlockState struct {
	xin     [][]float32 // T x D input to the block
	q, k, v [][]float32 // T x D projections
	kF, vF  []float32   // flat backings of k, v
	attn    [][]float32 // T x T softmax rows
	xa      [][]float32 // T x D xin + attention output (MLP sublayer input)
	f       [][]float32 // T x D post-ReLU MLP hidden
}

// stackState is one example's full forward trace.
type stackState struct {
	blocks []stackBlockState
	xout   [][]float32 // T x D output of the last block
	pooled []float32
	probs  []float32
}

// forward runs the stack on one token sequence, recording every block's
// activations. It Resets the arena, so the trace (and any backward temps
// carved after it) lives exactly until the next forward on this instance.
func (m *LayerStack) forward(params []float32, tok []int) *stackState {
	d := m.Dim
	T := len(tok)
	sc := m.scratch()
	sc.arena.Reset()
	st := &sc.st
	st.pooled = sc.arena.Alloc(d)
	emb := m.emb(params)
	x := sc.arena.Rows(T, d)
	for t, id := range tok {
		copy(x[t], emb[id*d:(id+1)*d])
	}
	scale := float32(1 / math.Sqrt(float64(d)))
	for l := 0; l < m.Layers; l++ {
		wq, wk, wv, wf1, wf2 := m.block(params, l)
		bs := &st.blocks[l]
		bs.xin = x
		_, bs.q = sc.arena.RowsFlat(T, d)
		bs.kF, bs.k = sc.arena.RowsFlat(T, d)
		bs.vF, bs.v = sc.arena.RowsFlat(T, d)
		bs.attn = sc.arena.Rows(T, T)
		bs.xa = sc.arena.Rows(T, d)
		bs.f = sc.arena.Rows(T, d)
		for t := 0; t < T; t++ {
			kernels.AddMatVec(bs.q[t], x[t], wq, d, d)
			kernels.AddMatVec(bs.k[t], x[t], wk, d, d)
			kernels.AddMatVec(bs.v[t], x[t], wv, d, d)
		}
		for t := 0; t < T; t++ {
			row := bs.attn[t]
			kernels.DotRowsInto(row, bs.q[t], bs.kF, T, d)
			for u := 0; u < T; u++ {
				row[u] *= scale
			}
			softmaxInto(row, row)
		}
		// Residual 1: xa = xin + attn(xin). The A·V product accumulates in
		// the zeroed xa row first, then the residual folds in with one
		// addition per element — the same chain as the naive s-then-add.
		for t := 0; t < T; t++ {
			kernels.AddMatVec(bs.xa[t], bs.attn[t], bs.vF, T, d)
			for j := 0; j < d; j++ {
				bs.xa[t][j] = x[t][j] + bs.xa[t][j]
			}
		}
		// MLP sublayer: f = ReLU(xa Wf1), residual 2: xout = xa + f Wf2.
		for t := 0; t < T; t++ {
			kernels.AddMatVec(bs.f[t], bs.xa[t], wf1, d, d)
			row := bs.f[t]
			for j := 0; j < d; j++ {
				if row[j] < 0 {
					row[j] = 0
				}
			}
		}
		_, next := sc.arena.RowsFlat(T, d)
		for t := 0; t < T; t++ {
			kernels.AddMatVec(next[t], bs.f[t], wf2, d, d)
			for j := 0; j < d; j++ {
				next[t][j] = bs.xa[t][j] + next[t][j]
			}
		}
		x = next
	}
	st.xout = x
	wo, bo := m.head(params)
	for t := 0; t < T; t++ {
		for j := 0; j < d; j++ {
			st.pooled[j] += x[t][j] / float32(T)
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
func (m *LayerStack) Forward(params []float32, tok []int) []float32 {
	return m.forward(params, tok).probs
}

// backBlock backpropagates one block: dX is the gradient at the block's
// output; the return value is the gradient at its input. Weight gradients
// accumulate into grads. Temps are carved from the scratch arena (valid
// until the next forward).
func (m *LayerStack) backBlock(params, grads []float32, l int, bs *stackBlockState, dX [][]float32) [][]float32 {
	d := m.Dim
	T := len(dX)
	wq, wk, wv, wf1, wf2 := m.block(params, l)
	gwq, gwk, gwv, gwf1, gwf2 := m.block(grads, l)
	scale := float32(1 / math.Sqrt(float64(d)))
	arena := &m.sc.arena

	// Residual 2: xout = xa + f Wf2 — dX reaches both xa and the MLP path.
	dXa := arena.Rows(T, d)
	dF := arena.Rows(T, d)
	for t := 0; t < T; t++ {
		copy(dXa[t], dX[t])
		kernels.BackProjSet(gwf2, dF[t], bs.f[t], dX[t], wf2, d, d)
	}
	// ReLU gate, then f = xa Wf1.
	for t := 0; t < T; t++ {
		for j := 0; j < d; j++ {
			if bs.f[t][j] <= 0 {
				dF[t][j] = 0
			}
		}
	}
	for t := 0; t < T; t++ {
		kernels.BackProjAdd(gwf1, dXa[t], bs.xa[t], dF[t], wf1, d, d)
	}

	// Residual 1: xa = xin + A V — dXa reaches both xin and attention.
	dXin := arena.Rows(T, d)
	for t := 0; t < T; t++ {
		copy(dXin[t], dXa[t])
	}
	dA := arena.Rows(T, T)
	dV := arena.Rows(T, d)
	for t := 0; t < T; t++ {
		kernels.DotRowsInto(dA[t], dXa[t], bs.vF, T, d)
		for u := 0; u < T; u++ {
			kernels.Axpy(dV[u], bs.attn[t][u], dXa[t])
		}
	}
	// Softmax backward per row, then Q/K.
	dQ := arena.Rows(T, d)
	dK := arena.Rows(T, d)
	for t := 0; t < T; t++ {
		var dot float32
		for u := 0; u < T; u++ {
			dot += dA[t][u] * bs.attn[t][u]
		}
		for u := 0; u < T; u++ {
			dsc := bs.attn[t][u] * (dA[t][u] - dot) * scale
			kernels.Axpy(dQ[t], dsc, bs.k[u])
			kernels.Axpy(dK[u], dsc, bs.q[t])
		}
	}
	// Projections: P = X W  =>  dW += X^T dP, dX += dP W^T.
	for _, bp := range [3]struct {
		dP [][]float32
		w  []float32
		gw []float32
	}{{dQ, wq, gwq}, {dK, wk, gwk}, {dV, wv, gwv}} {
		for t := 0; t < T; t++ {
			kernels.BackProjAdd(bp.gw, dXin[t], bs.xin[t], bp.dP[t], bp.w, d, d)
		}
	}
	return dXin
}

// LossAndGrad computes mean cross-entropy over a minibatch and the full
// gradient into grads (zeroed first). Returns the loss.
func (m *LayerStack) LossAndGrad(params []float32, ds *Dataset, batch []int, grads []float32) float64 {
	for i := range grads {
		grads[i] = 0
	}
	d := m.Dim
	wo, _ := m.head(params)
	gemb := m.emb(grads)
	gwo, gbo := m.head(grads)
	var loss float64
	inv := float32(1.0 / float64(len(batch)))

	for _, idx := range batch {
		tok := ds.TrainTok[idx]
		y := ds.TrainY[idx]
		T := len(tok)
		st := m.forward(params, tok)
		arena := &m.sc.arena
		p := float64(st.probs[y])
		if p < 1e-12 {
			p = 1e-12
		}
		loss += -math.Log(p)

		// Classifier backward.
		dz := arena.Alloc(m.Classes)
		for c := 0; c < m.Classes; c++ {
			dzc := st.probs[c] * inv
			if c == y {
				dzc -= inv
			}
			dz[c] = dzc
			gbo[c] += dzc
		}
		dPooled := arena.Alloc(d)
		kernels.BackProjSet(gwo, dPooled, st.pooled, dz, wo, d, m.Classes)
		// Mean pool backward.
		dX := arena.Rows(T, d)
		for t := 0; t < T; t++ {
			for j := 0; j < d; j++ {
				dX[t][j] = dPooled[j] / float32(T)
			}
		}
		// Blocks in reverse: the backward layer order.
		for l := m.Layers - 1; l >= 0; l-- {
			dX = m.backBlock(params, grads, l, &st.blocks[l], dX)
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
