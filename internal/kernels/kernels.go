// Package kernels is the shared matrix kernel core of the realtrain and
// gnn numeric hot paths: the forward/backward dense products of the MLP,
// attention and LayerStack proxies and of GCNII all route through these
// primitives instead of hand-rolled per-row loops.
//
// # Accumulation-order contract
//
// Every kernel fixes the FP32 accumulation order of each output element and
// documents it here; this is what makes the blocked and vector forms
// bit-identical to the naive loops they replaced (asserted by
// kernels_test.go across shapes, remainders, unaligned operands and
// special values, and end-to-end by the conformance goldens, which were
// NOT regenerated for any kernel change):
//
//   - AddMatVec: acc[j] receives its terms x[i]·w[i,j] in ascending i, one
//     addition per term. Blocking and lanes reorder the traversal across
//     (i, j) pairs, never the sequence of additions into a single acc[j].
//   - DotRowsInto: dst[i] is a single left-to-right chain over ascending j
//     (one running accumulator, never split into partial sums — a
//     multi-accumulator reduction would change the tree and the bits).
//   - BackProjSet/BackProjAdd: gw[i,j] receives exactly one addition per
//     call; the dx[i] reduction is a single chain over ascending j.
//   - OuterAdd/Axpy: one addition per element.
//
// Products are written operand-order-free (IEEE-754 multiplication is
// commutative down to the bit, so x[i]·w[i,j] and w[i,j]·x[i] are the same
// value); additions are never reassociated. No kernel fuses a multiply-add:
// the Go spec lets an implementation fuse a*b+c, even across statements,
// and arm64, ppc64le, riscv64 and s390x do. Its one barrier is an explicit
// conversion, so every product that feeds an addition is written
// float32(a*b). amd64 never fuses: the Go compiler does not, and the
// assembly writes every product as a VMULPS/VMULSS before its add.
// TestNoFusedMultiplyAdd (fma_test.go at the repository root) is the
// proof: it cross-builds the shipped binaries for those four
// architectures and fails on any fused op in this repository's code, and
// its asm subtest fails on any VFMADD-family line in a *.s file.
//
// # Lanes
//
// On amd64 with AVX2 (one CPUID/XGETBV probe, AVX2 reports it; no flag,
// environment variable or build tag selects the path) the kernels run
// kernels_amd64.s. Lanes run only across independent outputs: 8 columns of
// acc or gw per vector, or, in the row dot products, eight rows' chains
// side by side, each still the ascending-j chain. The Go bodies named
// ...Generic are the reference the tests compare against and the only path
// on other architectures and CPUs. The exported functions reslice every
// operand to its exact length before dispatching, so a short operand
// panics in Go, never inside the assembly.
//
// All kernels are allocation-free and safe for concurrent use on disjoint
// output slices.
package kernels

// MR is the register-tile height of the row-blocked Go reference
// addMatVecGeneric: MR weight rows stream through one pass over the
// accumulator row, so each acc[j] load/store pair is amortized over MR
// multiply-adds and the w walk stays sequential (hardware-prefetcher
// friendly) instead of cols-strided.
const MR = 4

// AVX2 reports whether the kernels (and the optim ADAM update) run their
// AVX2 bodies: the CPU has AVX2 and the OS saves YMM state. Always false
// off amd64. The result never changes a bit of any output.
func AVX2() bool { return hasAVX2 }

// AddMatVec accumulates the vector-matrix product acc[j] += Σ_i x[i]·w[i*cols+j]
// over the row-major rows×cols matrix w, with the additions into each
// acc[j] applied in ascending i order. x must have at least rows elements,
// w at least rows·cols and acc at least cols; acc must not overlap x or w.
// This is the kernel form of the "column-major naive" projection loop
// (for j { for i { s += x[i]*w[i*cols+j] } }) with the i/j loops
// interchanged: same additions, same order per accumulator, contiguous
// weight traffic.
func AddMatVec(acc, x, w []float32, rows, cols int) {
	addMatVec(acc[:cols], x[:rows], w[:rows*cols], rows, cols)
}

// addMatVecGeneric is the Go reference of AddMatVec, row-blocked by MR.
func addMatVecGeneric(acc, x, w []float32, rows, cols int) {
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
// left to right over ascending j in one running accumulator, never split
// into partial sums. dst must have at least rows elements, y at least cols
// and w at least rows·cols.
func DotRowsInto(dst, y, w []float32, rows, cols int) {
	dotRows(dst[:rows], y[:cols], w[:rows*cols], rows, cols, false)
}

// dotRowsGeneric is the Go reference of the row dot products: add selects
// dst[i] += s versus dst[i] = s. The j loop is unrolled four wide but
// keeps the single chain (sequential additions into one accumulator), so
// the bits match the naive two-line loop exactly.
func dotRowsGeneric(dst, y, w []float32, rows, cols int, add bool) {
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
		if add {
			dst[i] += s
		} else {
			dst[i] = s
		}
	}
}

// backProj is the shared body of BackProjSet/BackProjAdd, the backward
// pass over the row-major rows×cols weight matrix w for the projection
// p = x·W: the rank-1 gradient update gw[i*cols+j] += x[i]·dy[j], then per
// row the input gradient s = Σ_j dy[j]·w[i*cols+j] in a single ascending-j
// chain; set selects dx[i] = s versus dx[i] += s. gw must not overlap w,
// x or dy, so the two halves are independent and run as two passes.
func backProj(gw, dx, x, dy, w []float32, rows, cols int, set bool) {
	dy = dy[:cols]
	outerAdd(gw[:rows*cols], x[:rows], dy, rows, cols)
	dotRows(dx[:rows], dy, w[:rows*cols], rows, cols, !set)
}

// BackProjSet runs the backward of p = x·W, assigning the input gradient:
// gw[i,j] += x[i]·dy[j] and dx[i] = Σ_j dy[j]·w[i,j] (ascending j, single
// chain). gw and w are row-major rows×cols; x and dx have rows elements,
// dy has cols.
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
// immaterial to the bits.
func OuterAdd(gw, x, dy []float32, rows, cols int) {
	outerAdd(gw[:rows*cols], x[:rows], dy[:cols], rows, cols)
}

// outerAddGeneric is the Go reference of OuterAdd, row-major for
// contiguous writes.
func outerAddGeneric(gw, x, dy []float32, rows, cols int) {
	for i := 0; i < rows; i++ {
		xi := x[i]
		row := gw[i*cols : (i+1)*cols]
		for j, dyj := range dy {
			row[j] += float32(xi * dyj)
		}
	}
}

// Axpy accumulates dst[j] += a·src[j] — one addition per element, the
// attention-value and softmax-Jacobian update shape. It is the one-row
// OuterAdd.
func Axpy(dst []float32, a float32, src []float32) {
	x := [1]float32{a}
	outerAdd(dst, x[:], src[:len(dst)], 1, len(dst))
}
