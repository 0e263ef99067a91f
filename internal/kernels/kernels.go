// Package kernels is the shared blocked, cache-aware matrix kernel core of
// the realtrain numeric hot paths: the forward/backward dense products of
// the MLP, attention and LayerStack proxies all route through these four
// primitives instead of hand-rolled per-row loops.
//
// # Accumulation-order contract
//
// Every kernel fixes the FP32 accumulation order of each output element and
// documents it here; this is what makes the blocked forms bit-identical to
// the naive loops they replaced (asserted exhaustively by kernels_test.go
// across shapes and block-boundary remainders, and end-to-end by the
// conformance goldens, which were NOT regenerated for the kernel change):
//
//   - AddMatVec: acc[j] receives its terms x[i]·w[i,j] in ascending i, one
//     addition per term. Blocking streams MR weight rows per pass over the
//     accumulator, but the per-accumulator addition order is still exactly
//     ascending i — row-blocking reorders the traversal across (i, j)
//     pairs, never the sequence of additions into a single acc[j].
//   - DotRowsInto/AddDotRows: dst[i] is a single left-to-right chain over
//     ascending j (one running accumulator, never split into partial sums —
//     a multi-accumulator unroll would change the reduction tree and the
//     bits).
//   - BackProjSet/BackProjAdd: gw[i,j] receives exactly one addition per
//     call; the dx[i] reduction is a single chain over ascending j.
//
// Products are written operand-order-free (IEEE-754 multiplication is
// commutative down to the bit, so x[i]·w[i,j] and w[i,j]·x[i] are the same
// value); additions are never reassociated. No kernel fuses a multiply-add:
// the Go spec lets an implementation fuse a*b+c, even across statements,
// and arm64, ppc64le, riscv64 and s390x do. Its one barrier is an explicit
// conversion, so every product that feeds an addition is written
// float32(a*b). amd64 never fuses, and the conversion leaves its code
// unchanged. TestNoFusedMultiplyAdd (fma_test.go at the repository root)
// is the proof: it cross-builds the shipped binaries for those four
// architectures and fails on any fused op in this repository's code.
//
// All kernels are allocation-free and safe for concurrent use on disjoint
// output slices.
package kernels

// MR is the register-tile height of the row-blocked kernels: MR weight rows
// stream through one pass over the accumulator row, so each acc[j]
// load/store pair is amortized over MR multiply-adds and the w walk stays
// sequential (hardware-prefetcher friendly) instead of cols-strided.
const MR = 4

// AddMatVec accumulates the vector-matrix product acc[j] += Σ_i x[i]·w[i*cols+j]
// over the row-major rows×cols matrix w, with the additions into each
// acc[j] applied in ascending i order. x must have at least rows elements
// and acc at least cols. This is the kernel form of the "column-major
// naive" projection loop (for j { for i { s += x[i]*w[i*cols+j] } }) with
// the i/j loops interchanged and row-blocked: same additions, same order
// per accumulator, contiguous weight traffic.
func AddMatVec(acc, x, w []float32, rows, cols int) {
	acc = acc[:cols]
	i := 0
	for ; i+MR <= rows; i += MR {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		r0 := w[(i+0)*cols : (i+1)*cols]
		r1 := w[(i+1)*cols : (i+2)*cols]
		r2 := w[(i+2)*cols : (i+3)*cols]
		r3 := w[(i+3)*cols : (i+4)*cols]
		for j, w0 := range r0 {
			s := acc[j]
			s += float32(x0 * w0)
			s += float32(x1 * r1[j])
			s += float32(x2 * r2[j])
			s += float32(x3 * r3[j])
			acc[j] = s
		}
	}
	for ; i < rows; i++ {
		xi := x[i]
		row := w[i*cols : (i+1)*cols]
		for j, wv := range row {
			acc[j] += float32(xi * wv)
		}
	}
}

// MatVecInto assigns dst = bias + x·W: dst is first overwritten with bias
// (dst and bias must both have cols elements), then AddMatVec accumulates
// the product in its fixed order. dst must not alias bias, x or w.
func MatVecInto(dst, bias, x, w []float32, rows, cols int) {
	copy(dst[:cols], bias[:cols])
	AddMatVec(dst, x, w, rows, cols)
}

// DotRowsInto assigns dst[i] = Σ_j y[j]·w[i*cols+j] for i in [0, rows):
// each output is the dot product of y with matrix row i, reduced strictly
// left to right over ascending j in one running accumulator. The j loop is
// unrolled four wide but keeps that single chain (sequential additions into
// one accumulator, never four partial sums), so the bits match the naive
// two-line loop exactly.
func DotRowsInto(dst, y, w []float32, rows, cols int) {
	for i := 0; i < rows; i++ {
		row := w[i*cols : (i+1)*cols]
		var s float32
		j := 0
		for ; j+4 <= cols; j += 4 {
			s += float32(y[j] * row[j])
			s += float32(y[j+1] * row[j+1])
			s += float32(y[j+2] * row[j+2])
			s += float32(y[j+3] * row[j+3])
		}
		for ; j < cols; j++ {
			s += float32(y[j] * row[j])
		}
		dst[i] = s
	}
}

// backProj is the shared body of BackProjSet/BackProjAdd: one fused
// backward pass over the row-major rows×cols weight matrix w for the
// projection p = x·W. Per row i it applies the rank-1 gradient update
// gw[i*cols+j] += x[i]·dy[j] and reduces the input gradient
// s = Σ_j dy[j]·w[i*cols+j] in a single ascending-j chain; set selects
// dx[i] = s versus dx[i] += s.
func backProj(gw, dx, x, dy, w []float32, rows, cols int, set bool) {
	dy = dy[:cols]
	for i := 0; i < rows; i++ {
		xi := x[i]
		wrow := w[i*cols : (i+1)*cols]
		gwrow := gw[i*cols : (i+1)*cols]
		var s float32
		for j, dyj := range dy {
			gwrow[j] += float32(xi * dyj)
			s += float32(dyj * wrow[j])
		}
		if set {
			dx[i] = s
		} else {
			dx[i] += s
		}
	}
}

// BackProjSet runs the fused backward of p = x·W, assigning the input
// gradient: gw[i,j] += x[i]·dy[j] and dx[i] = Σ_j dy[j]·w[i,j] (ascending
// j, single chain). gw and w are row-major rows×cols; x and dx have rows
// elements, dy has cols.
func BackProjSet(gw, dx, x, dy, w []float32, rows, cols int) {
	backProj(gw, dx, x, dy, w, rows, cols, true)
}

// BackProjAdd is BackProjSet with dx accumulated (dx[i] += ...) instead of
// assigned — the residual-stream form the attention and LayerStack
// backward passes use.
func BackProjAdd(gw, dx, x, dy, w []float32, rows, cols int) {
	backProj(gw, dx, x, dy, w, rows, cols, false)
}

// OuterAdd applies the rank-1 update gw[i*cols+j] += x[i]·dy[j]. Every
// element receives exactly one addition per call, so traversal order is
// immaterial to the bits; the loop is row-major for contiguous writes.
func OuterAdd(gw, x, dy []float32, rows, cols int) {
	dy = dy[:cols]
	for i := 0; i < rows; i++ {
		xi := x[i]
		row := gw[i*cols : (i+1)*cols]
		for j, dyj := range dy {
			row[j] += float32(xi * dyj)
		}
	}
}

// Axpy accumulates dst[j] += a·src[j] — one addition per element, the
// attention-value and softmax-Jacobian update shape.
func Axpy(dst []float32, a float32, src []float32) {
	src = src[:len(dst)]
	for j, v := range src {
		dst[j] += float32(a * v)
	}
}
