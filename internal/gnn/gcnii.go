package gnn

import (
	"math"
	"math/rand"

	"teco/internal/kernels"
)

// GCNII is the deep graph convolutional network of Chen et al. (2020),
// which the paper evaluates as its GNN workload. Each layer applies
//
//	H^{l+1} = ReLU( ( (1-alpha) Â H^l + alpha H^0 ) ( (1-beta_l) I + beta_l W^l ) )
//
// with initial residual (alpha) and identity mapping (beta_l =
// log(lambda/l + 1)), preceded by a linear input encoder and followed by a
// linear classifier. Parameters live in one flat FP32 vector so the model
// can ride the dirty-byte machinery exactly like the MLP in realtrain.
//
// The dense products run on internal/kernels under its accumulation-order
// contract, and every per-epoch intermediate is carved from a reused arena,
// so a GCNII is not safe for concurrent use.
type GCNII struct {
	Feat, Hidden, Classes, Layers int
	Alpha, Lambda                 float64
	Params                        []float32

	arena kernels.Arena
}

// NewGCNII builds the model with Glorot-style initialization.
func NewGCNII(feat, hidden, classes, layers int, seed int64) *GCNII {
	m := &GCNII{
		Feat: feat, Hidden: hidden, Classes: classes, Layers: layers,
		Alpha: 0.1, Lambda: 0.5,
	}
	m.Params = make([]float32, m.NumParams())
	rng := rand.New(rand.NewSource(seed))
	win, _, wl, wout, _ := m.views(m.Params)
	scale := func(fanIn int) float32 { return float32(math.Sqrt(2 / float64(fanIn))) }
	for i := range win {
		win[i] = scale(feat) * float32(rng.NormFloat64())
	}
	for l := range wl {
		for i := range wl[l] {
			wl[l][i] = scale(hidden) * float32(rng.NormFloat64())
		}
	}
	for i := range wout {
		wout[i] = scale(hidden) * float32(rng.NormFloat64())
	}
	return m
}

// NumParams returns the flat parameter count: input encoder, L layer
// matrices, output classifier, and the two bias vectors.
func (m *GCNII) NumParams() int {
	return m.Feat*m.Hidden + m.Hidden + // W_in, b_in
		m.Layers*m.Hidden*m.Hidden + // W^l
		m.Hidden*m.Classes + m.Classes // W_out, b_out
}

// views slices a flat vector into (Win, bIn, perLayerW, Wout, bOut).
func (m *GCNII) views(p []float32) (win, bin []float32, wl [][]float32, wout, bout []float32) {
	o := 0
	win = p[o : o+m.Feat*m.Hidden]
	o += m.Feat * m.Hidden
	bin = p[o : o+m.Hidden]
	o += m.Hidden
	wl = make([][]float32, m.Layers)
	for l := 0; l < m.Layers; l++ {
		wl[l] = p[o : o+m.Hidden*m.Hidden]
		o += m.Hidden * m.Hidden
	}
	wout = p[o : o+m.Hidden*m.Classes]
	o += m.Hidden * m.Classes
	bout = p[o : o+m.Classes]
	return
}

// beta returns the identity-mapping strength for layer l (1-indexed).
func (m *GCNII) beta(l int) float32 {
	return float32(math.Log(m.Lambda/float64(l) + 1))
}

// forwardState holds the activations needed by backward. Every matrix is
// carved from the model's arena, so the state is valid until the next
// forward call on the same model.
type forwardState struct {
	h0     [][]float32   // encoder output (post-ReLU)
	encPre [][]float32   // encoder pre-activation
	z      [][][]float32 // per layer: Z = (1-a) Â H + a H0
	pre    [][][]float32 // per layer: pre-ReLU M
	h      [][][]float32 // per layer: post-ReLU output
	logits [][]float32
	probs  [][]float32
}

func reluInto(dst, src []float32) {
	for j, v := range src {
		if v > 0 {
			dst[j] = v
		} else {
			dst[j] = 0
		}
	}
}

// forward runs the full-graph forward pass with the given parameters. The
// three dense products (encoder, layer, classifier) are per-node
// vector-matrix products in kernels.AddMatVec's shape: each output
// accumulates its terms in ascending input index, one addition per term.
func (m *GCNII) forward(params []float32, g *Graph) *forwardState {
	win, bin, wl, wout, bout := m.views(params)
	H := m.Hidden
	ar := &m.arena
	ar.Reset()
	st := &forwardState{}
	// Encoder: H0 = ReLU(X Win + bIn).
	st.encPre = ar.Rows(g.N, H)
	st.h0 = ar.Rows(g.N, H)
	for i := 0; i < g.N; i++ {
		kernels.MatVecInto(st.encPre[i], bin, g.Features[i], win, m.Feat, H)
		reluInto(st.h0[i], st.encPre[i])
	}
	// GCNII layers.
	a := float32(m.Alpha)
	cur := st.h0
	prop := ar.Rows(g.N, H)
	bz := ar.Alloc(H)
	for l := 0; l < m.Layers; l++ {
		b := m.beta(l + 1)
		g.Propagate(cur, prop)
		z := ar.Rows(g.N, H)
		pre := ar.Rows(g.N, H)
		out := ar.Rows(g.N, H)
		for i := 0; i < g.N; i++ {
			zi, pi := z[i], pre[i]
			// M = Z((1-b)I + bW): m_j = (1-b) z_j + Σ_k (b z_k) W[k,j].
			for j := range zi {
				v := float32((1-a)*prop[i][j]) + float32(a*st.h0[i][j])
				zi[j] = v
				pi[j] = (1 - b) * v
				bz[j] = b * v
			}
			kernels.AddMatVec(pi, bz, wl[l], H, H)
			reluInto(out[i], pi)
		}
		st.z = append(st.z, z)
		st.pre = append(st.pre, pre)
		st.h = append(st.h, out)
		cur = out
	}
	// Classifier.
	st.logits = ar.Rows(g.N, m.Classes)
	st.probs = ar.Rows(g.N, m.Classes)
	for i := 0; i < g.N; i++ {
		kernels.MatVecInto(st.logits[i], bout, cur[i], wout, H, m.Classes)
		softmaxInto(st.logits[i], st.probs[i])
	}
	return st
}

func softmaxInto(z, out []float32) {
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
}

// LossAndGrad computes the mean cross-entropy over the graph's training
// nodes and the full gradient into grads (zeroed first). Returns the loss.
func (m *GCNII) LossAndGrad(params []float32, g *Graph, grads []float32) float64 {
	for i := range grads {
		grads[i] = 0
	}
	st := m.forward(params, g)
	_, _, wl, wout, _ := m.views(params)
	gwin, gbin, gwl, gwout, gbout := m.views(grads)
	H := m.Hidden
	ar := &m.arena // forward Reset it; the backward scratch follows the activations

	var loss float64
	inv := float32(1.0 / float64(len(g.Train)))
	// dLogits only on training nodes.
	dH := ar.Rows(g.N, H)  // gradient w.r.t. current layer output
	dH0 := ar.Rows(g.N, H) // accumulated gradient into H0
	dz := ar.Alloc(m.Classes)
	last := st.h0
	if m.Layers > 0 {
		last = st.h[m.Layers-1]
	}
	for _, i := range g.Train {
		y := g.Labels[i]
		p := float64(st.probs[i][y])
		if p < 1e-12 {
			p = 1e-12
		}
		loss += -math.Log(p)
		for c := range dz {
			dz[c] = float32(st.probs[i][c] * inv)
			if c == y {
				dz[c] -= inv
			}
			gbout[c] += dz[c]
		}
		kernels.BackProjAdd(gwout, dH[i], last[i], dz, wout, H, m.Classes)
	}

	// Backward through GCNII layers.
	a := float32(m.Alpha)
	dZ := ar.Rows(g.N, H)
	dProp := ar.Rows(g.N, H)
	bz := ar.Alloc(H)
	bw := ar.Alloc(H * H)
	for l := m.Layers - 1; l >= 0; l-- {
		b := m.beta(l + 1)
		z := st.z[l]
		pre := st.pre[l]
		for k, v := range wl[l] {
			bw[k] = b * v
		}
		// dM = dH ∘ relu'(pre); dW += (b Z)^T dM; dZ = (1-b) dM + dM (b W)^T.
		// Scaling z and W by b first keeps the (b·z)·dm and (b·w)·dm operand
		// order while the pair runs as one fused backward projection.
		for i := 0; i < g.N; i++ {
			dm, dzi := dH[i], dZ[i]
			for j, p := range pre[i] {
				if p <= 0 {
					dm[j] = 0
				}
			}
			for j, d := range dm {
				dzi[j] = (1 - b) * d
				bz[j] = b * z[i][j]
			}
			kernels.BackProjAdd(gwl[l], dzi, bz, dm, bw, H, H)
		}
		// dProp = (1-a) Â^T dZ = (1-a) Â dZ (Â symmetric); dH0 += a dZ.
		g.Propagate(dZ, dProp)
		for i := 0; i < g.N; i++ {
			for j := 0; j < H; j++ {
				dH[i][j] = (1 - a) * dProp[i][j]
				dH0[i][j] += float32(a * dZ[i][j])
			}
		}
	}
	// The encoder output feeds layer 0's propagation path (now in dH) and
	// every layer's residual (in dH0). Units the encoder ReLU switched off
	// get a zero gradient: adding the resulting ±0 terms is a bitwise no-op,
	// because an accumulator that starts at +0 is never -0.
	for i := 0; i < g.N; i++ {
		d := dH0[i]
		for j, p := range st.encPre[i] {
			d[j] += dH[i][j]
			if p <= 0 {
				d[j] = 0
			}
		}
		for j, v := range d {
			gbin[j] += v
		}
		kernels.OuterAdd(gwin, g.Features[i], d, m.Feat, H)
	}
	return loss / float64(len(g.Train))
}

// Accuracy evaluates node-classification accuracy on the given node set.
func (m *GCNII) Accuracy(params []float32, g *Graph, nodes []int) float64 {
	st := m.forward(params, g)
	correct := 0
	for _, i := range nodes {
		best := 0
		for c := range st.probs[i] {
			if st.probs[i][c] > st.probs[i][best] {
				best = c
			}
		}
		if best == g.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(nodes))
}
