package gnn

import "math"

// The pre-kernel GCNII forward/backward, kept verbatim as the bit-identity
// reference: column-strided weight walks (w[k*H+j] with k innermost), one
// fresh row-by-row matrix per intermediate. gcnii_identity_test.go asserts
// the kernels-backed production path reproduces its loss, gradients and
// probabilities bit for bit.

// refState holds the activations needed by backward.
type refState struct {
	h0     [][]float32   // encoder output (post-ReLU)
	encPre [][]float32   // encoder pre-activation
	z      [][][]float32 // per layer: Z = (1-a) Â H + a H0
	pre    [][][]float32 // per layer: pre-ReLU M
	h      [][][]float32 // per layer: post-ReLU output
	logits [][]float32
	probs  [][]float32
}

func alloc(n, d int) [][]float32 {
	m := make([][]float32, n)
	for i := range m {
		m[i] = make([]float32, d)
	}
	return m
}

// refForward is the naive full-graph forward pass.
func (m *GCNII) refForward(params []float32, g *Graph) *refState {
	win, bin, wl, wout, bout := m.views(params)
	st := &refState{}
	// Encoder: H0 = ReLU(X Win + bIn).
	st.encPre = alloc(g.N, m.Hidden)
	st.h0 = alloc(g.N, m.Hidden)
	for i := 0; i < g.N; i++ {
		x := g.Features[i]
		for j := 0; j < m.Hidden; j++ {
			s := bin[j]
			for d := 0; d < m.Feat; d++ {
				s += float32(x[d] * win[d*m.Hidden+j])
			}
			st.encPre[i][j] = s
			if s > 0 {
				st.h0[i][j] = s
			}
		}
	}
	// GCNII layers.
	a := float32(m.Alpha)
	cur := st.h0
	prop := alloc(g.N, m.Hidden)
	for l := 0; l < m.Layers; l++ {
		b := m.beta(l + 1)
		g.Propagate(cur, prop)
		z := alloc(g.N, m.Hidden)
		for i := 0; i < g.N; i++ {
			for j := 0; j < m.Hidden; j++ {
				z[i][j] = float32((1-a)*prop[i][j]) + float32(a*st.h0[i][j])
			}
		}
		pre := alloc(g.N, m.Hidden)
		out := alloc(g.N, m.Hidden)
		w := wl[l]
		for i := 0; i < g.N; i++ {
			zi := z[i]
			for j := 0; j < m.Hidden; j++ {
				// M = Z((1-b)I + bW): (1-b) z_j + b (z . W[:,j]).
				s := (1 - b) * zi[j]
				for k := 0; k < m.Hidden; k++ {
					s += float32(b * zi[k] * w[k*m.Hidden+j])
				}
				pre[i][j] = s
				if s > 0 {
					out[i][j] = s
				}
			}
		}
		st.z = append(st.z, z)
		st.pre = append(st.pre, pre)
		st.h = append(st.h, out)
		cur = out
	}
	// Classifier.
	st.logits = alloc(g.N, m.Classes)
	st.probs = alloc(g.N, m.Classes)
	for i := 0; i < g.N; i++ {
		hi := cur[i]
		for c := 0; c < m.Classes; c++ {
			s := bout[c]
			for j := 0; j < m.Hidden; j++ {
				s += float32(hi[j] * wout[j*m.Classes+c])
			}
			st.logits[i][c] = s
		}
		softmaxInto(st.logits[i], st.probs[i])
	}
	return st
}

// refLossAndGrad is the naive LossAndGrad; it also returns its forward
// state so tests can compare activations.
func (m *GCNII) refLossAndGrad(params []float32, g *Graph, grads []float32) (float64, *refState) {
	for i := range grads {
		grads[i] = 0
	}
	st := m.refForward(params, g)
	_, _, wl, wout, _ := m.views(params)
	gwin, gbin, gwl, gwout, gbout := m.views(grads)

	var loss float64
	inv := float32(1.0 / float64(len(g.Train)))
	// dLogits only on training nodes.
	dH := alloc(g.N, m.Hidden)  // gradient w.r.t. current layer output
	dH0 := alloc(g.N, m.Hidden) // accumulated gradient into H0
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
		for c := 0; c < m.Classes; c++ {
			dz := float32(st.probs[i][c] * inv)
			if c == y {
				dz -= inv
			}
			gbout[c] += dz
			for j := 0; j < m.Hidden; j++ {
				gwout[j*m.Classes+c] += float32(last[i][j] * dz)
				dH[i][j] += float32(wout[j*m.Classes+c] * dz)
			}
		}
	}

	// Backward through GCNII layers.
	a := float32(m.Alpha)
	dZ := alloc(g.N, m.Hidden)
	dProp := alloc(g.N, m.Hidden)
	for l := m.Layers - 1; l >= 0; l-- {
		b := m.beta(l + 1)
		w := wl[l]
		gw := gwl[l]
		z := st.z[l]
		pre := st.pre[l]
		// dM = dH ∘ relu'(pre); dW += b Z^T dM; dZ = (1-b) dM + b dM W^T.
		for i := 0; i < g.N; i++ {
			for j := 0; j < m.Hidden; j++ {
				if pre[i][j] <= 0 {
					dH[i][j] = 0
				}
			}
		}
		for i := 0; i < g.N; i++ {
			dm := dH[i]
			zi := z[i]
			dzi := dZ[i]
			for j := 0; j < m.Hidden; j++ {
				dzi[j] = (1 - b) * dm[j]
			}
			for k := 0; k < m.Hidden; k++ {
				zk := zi[k]
				dzk := float32(0)
				for j := 0; j < m.Hidden; j++ {
					gw[k*m.Hidden+j] += float32(b * zk * dm[j])
					dzk += float32(b * w[k*m.Hidden+j] * dm[j])
				}
				dzi[k] += dzk
			}
		}
		// dProp = (1-a) Â^T dZ = (1-a) Â dZ (Â symmetric); dH0 += a dZ.
		g.Propagate(dZ, dProp)
		for i := 0; i < g.N; i++ {
			for j := 0; j < m.Hidden; j++ {
				dH[i][j] = (1 - a) * dProp[i][j]
				dH0[i][j] += float32(a * dZ[i][j])
			}
		}
	}
	// The encoder output feeds layer 0's propagation path (now in dH) and
	// every layer's residual (in dH0).
	for i := 0; i < g.N; i++ {
		for j := 0; j < m.Hidden; j++ {
			dH0[i][j] += dH[i][j]
		}
	}
	// Encoder backward.
	for i := 0; i < g.N; i++ {
		x := g.Features[i]
		for j := 0; j < m.Hidden; j++ {
			if st.encPre[i][j] <= 0 {
				continue
			}
			d := dH0[i][j]
			gbin[j] += d
			for dd := 0; dd < m.Feat; dd++ {
				gwin[dd*m.Hidden+j] += float32(x[dd] * d)
			}
		}
	}
	return loss / float64(len(g.Train)), st
}
