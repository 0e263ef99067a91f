package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// shapes covers the block-boundary space: every remainder mod MR (and mod
// the 4-wide dot unroll), primes, tiny degenerate rows/cols, and shapes
// large enough that multiple full MR blocks and a remainder both execute.
var shapes = []struct{ rows, cols int }{
	{1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5},
	{3, 8}, {4, 8}, {5, 8}, {6, 8}, {7, 8}, {8, 8},
	{8, 3}, {8, 5}, {13, 13}, {17, 31}, {31, 17},
	{32, 128}, {128, 8}, {127, 129}, {129, 127}, {64, 64},
}

// fill populates a slice with a deterministic mix of magnitudes, signs,
// subnormals and exact zeros — the value classes where accumulation-order
// differences show up as bit differences.
func fill(rng *rand.Rand, s []float32) {
	for i := range s {
		switch rng.Intn(8) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = math.Float32frombits(rng.Uint32() & 0x007FFFFF) // subnormal
		case 2:
			s[i] = float32(rng.NormFloat64()) * 1e-20
		case 3:
			s[i] = float32(rng.NormFloat64()) * 1e20
		default:
			s[i] = float32(rng.NormFloat64())
		}
	}
}

// Naive references: the exact loops the kernels replaced, kept here as the
// bit-identity oracles.

func naiveAddMatVec(acc, x, w []float32, rows, cols int) {
	for j := 0; j < cols; j++ {
		s := acc[j]
		for i := 0; i < rows; i++ {
			s += float32(x[i] * w[i*cols+j])
		}
		acc[j] = s
	}
}

func naiveDotRowsInto(dst, y, w []float32, rows, cols int) {
	for i := 0; i < rows; i++ {
		var s float32
		for j := 0; j < cols; j++ {
			s += float32(y[j] * w[i*cols+j])
		}
		dst[i] = s
	}
}

func naiveBackProj(gw, dx, x, dy, w []float32, rows, cols int, set bool) {
	for i := 0; i < rows; i++ {
		xi := x[i]
		var s float32
		for j := 0; j < cols; j++ {
			gw[i*cols+j] += float32(xi * dy[j])
			s += float32(w[i*cols+j] * dy[j]) // operand order flipped on purpose: IEEE mul commutes
		}
		if set {
			dx[i] = s
		} else {
			dx[i] += s
		}
	}
}

func naiveOuterAdd(gw, x, dy []float32, rows, cols int) {
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			gw[i*cols+j] += float32(x[i] * dy[j])
		}
	}
}

// eqBits fails the test at the first element whose raw float32 bits differ.
func eqBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: bit mismatch at %d: got %08x (%g) want %08x (%g)",
				name, i, math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

// TestKernelBitIdentity proves every blocked kernel bit-identical to its
// naive reference on every shape, including non-zero starting accumulators
// (the residual-stream case).
func TestKernelBitIdentity(t *testing.T) {
	for _, sh := range shapes {
		sh := sh
		t.Run(fmt.Sprintf("%dx%d", sh.rows, sh.cols), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(sh.rows)<<16 | int64(sh.cols)))
			x := make([]float32, sh.rows)
			y := make([]float32, sh.cols)
			w := make([]float32, sh.rows*sh.cols)
			accInit := make([]float32, sh.cols)
			dxInit := make([]float32, sh.rows)
			gwInit := make([]float32, sh.rows*sh.cols)
			fill(rng, x)
			fill(rng, y)
			fill(rng, w)
			fill(rng, accInit)
			fill(rng, dxInit)
			fill(rng, gwInit)

			accK := append([]float32(nil), accInit...)
			accN := append([]float32(nil), accInit...)
			AddMatVec(accK, x, w, sh.rows, sh.cols)
			naiveAddMatVec(accN, x, w, sh.rows, sh.cols)
			eqBits(t, "AddMatVec", accK, accN)

			dstK := make([]float32, sh.cols)
			dstN := make([]float32, sh.cols)
			MatVecInto(dstK, accInit, x, w, sh.rows, sh.cols)
			copy(dstN, accInit)
			naiveAddMatVec(dstN, x, w, sh.rows, sh.cols)
			eqBits(t, "MatVecInto", dstK, dstN)

			dotK := make([]float32, sh.rows)
			dotN := make([]float32, sh.rows)
			DotRowsInto(dotK, y, w, sh.rows, sh.cols)
			naiveDotRowsInto(dotN, y, w, sh.rows, sh.cols)
			eqBits(t, "DotRowsInto", dotK, dotN)

			for _, set := range []bool{true, false} {
				gwK := append([]float32(nil), gwInit...)
				gwN := append([]float32(nil), gwInit...)
				dxK := append([]float32(nil), dxInit...)
				dxN := append([]float32(nil), dxInit...)
				if set {
					BackProjSet(gwK, dxK, x, y, w, sh.rows, sh.cols)
				} else {
					BackProjAdd(gwK, dxK, x, y, w, sh.rows, sh.cols)
				}
				naiveBackProj(gwN, dxN, x, y, w, sh.rows, sh.cols, set)
				eqBits(t, fmt.Sprintf("BackProj(set=%v).gw", set), gwK, gwN)
				eqBits(t, fmt.Sprintf("BackProj(set=%v).dx", set), dxK, dxN)
			}

			gwK := append([]float32(nil), gwInit...)
			gwN := append([]float32(nil), gwInit...)
			OuterAdd(gwK, x, y, sh.rows, sh.cols)
			naiveOuterAdd(gwN, x, y, sh.rows, sh.cols)
			eqBits(t, "OuterAdd", gwK, gwN)

			axK := append([]float32(nil), accInit...)
			axN := append([]float32(nil), accInit...)
			Axpy(axK, x[0], y)
			for j := range axN {
				axN[j] += float32(x[0] * y[j])
			}
			eqBits(t, "Axpy", axK, axN)
		})
	}
}

// TestKernelZeroAlloc pins the kernels allocation-free.
func TestKernelZeroAlloc(t *testing.T) {
	const rows, cols = 33, 65
	rng := rand.New(rand.NewSource(7))
	x := make([]float32, rows)
	dy := make([]float32, cols)
	w := make([]float32, rows*cols)
	gw := make([]float32, rows*cols)
	acc := make([]float32, cols)
	dx := make([]float32, rows)
	fill(rng, x)
	fill(rng, dy)
	fill(rng, w)
	if n := testing.AllocsPerRun(100, func() {
		AddMatVec(acc, x, w, rows, cols)
		DotRowsInto(dx, dy, w, rows, cols)
		BackProjSet(gw, dx, x, dy, w, rows, cols)
		BackProjAdd(gw, dx, x, dy, w, rows, cols)
		OuterAdd(gw, x, dy, rows, cols)
		Axpy(acc, 2, dy)
	}); n != 0 {
		t.Fatalf("kernels allocated %v times per run, want 0", n)
	}
}

// TestArenaReuse pins the arena contract: zeroed handouts, growth never
// moves live slices, Reset reuses capacity with no further allocation.
func TestArenaReuse(t *testing.T) {
	var a Arena
	m := a.Rows(3, 5)
	if len(m) != 3 || len(m[0]) != 5 {
		t.Fatalf("Rows(3,5) shaped %dx%d", len(m), len(m[0]))
	}
	m[2][4] = 42
	v := a.Alloc(arenaSlabWords * 2) // forces a dedicated slab
	if len(v) != arenaSlabWords*2 {
		t.Fatalf("Alloc length %d", len(v))
	}
	if m[2][4] != 42 {
		t.Fatal("growth moved a live slice")
	}
	for _, x := range v {
		if x != 0 {
			t.Fatal("Alloc handed out non-zero storage")
		}
	}
	a.Reset()
	m2 := a.Rows(3, 5)
	if m2[2][4] != 0 {
		t.Fatal("Reset handout not zeroed")
	}
	if &m2[2][0] != &m[2][0] {
		t.Fatal("Reset did not reuse the slab")
	}
	// Steady state: no allocations once every slab exists.
	if n := testing.AllocsPerRun(50, func() {
		a.Reset()
		a.Rows(3, 5)
		a.Alloc(arenaSlabWords * 2)
		a.Rows(7, 9)
	}); n != 0 {
		t.Fatalf("steady-state arena allocated %v times per run, want 0", n)
	}

	// Row capacity is clamped: appending to a row must not bleed into its
	// neighbour.
	a.Reset()
	rows := a.Rows(2, 4)
	r0 := append(rows[0], 99)
	if rows[1][0] == 99 {
		t.Fatal("append to row 0 overwrote row 1")
	}
	_ = r0
}

// BenchmarkMatmulBlocked measures AddMatVec on the LayerStack projection
// shape (32×32) and the MLP hidden shape (32×128), against the naive
// column-major loop it replaced.
func BenchmarkMatmulBlocked(b *testing.B) {
	for _, sh := range []struct{ rows, cols int }{{32, 32}, {32, 128}, {128, 128}} {
		rng := rand.New(rand.NewSource(1))
		x := make([]float32, sh.rows)
		w := make([]float32, sh.rows*sh.cols)
		acc := make([]float32, sh.cols)
		fill(rng, x)
		fill(rng, w)
		b.Run(fmt.Sprintf("blocked-%dx%d", sh.rows, sh.cols), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				AddMatVec(acc, x, w, sh.rows, sh.cols)
			}
		})
		b.Run(fmt.Sprintf("naive-%dx%d", sh.rows, sh.cols), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				naiveAddMatVec(acc, x, w, sh.rows, sh.cols)
			}
		})
	}
}
