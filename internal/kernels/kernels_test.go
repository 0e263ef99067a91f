package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// shapes covers the block-boundary space: every rows remainder mod MR and
// mod the four interleaved dot chains, every cols remainder mod 8 both
// below and above one 8-lane vector (and past the 32-column block), primes,
// tiny degenerate rows/cols, and shapes large enough that multiple full
// blocks and a remainder both execute.
var shapes = []struct{ rows, cols int }{
	{1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}, {6, 6},
	{3, 8}, {4, 8}, {5, 8}, {6, 8}, {7, 8}, {8, 8},
	{8, 3}, {8, 5}, {9, 9}, {9, 10}, {10, 11}, {11, 12}, {13, 13}, {12, 14},
	{17, 31}, {31, 17}, {5, 46}, {7, 63}, {33, 40}, {3, 70},
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

// fillSpecial is fill with ±Inf and NaN mixed in, for the pass that
// checks the kernels propagate them where the references do.
func fillSpecial(rng *rand.Rand, s []float32) {
	fill(rng, s)
	for i := range s {
		switch rng.Intn(16) {
		case 0:
			s[i] = float32(math.Inf(1))
		case 1:
			s[i] = float32(math.Inf(-1))
		case 2:
			s[i] = float32(math.NaN())
		case 3:
			s[i] = float32(math.Copysign(0, -1))
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
// A NaN matches any NaN: x86 keeps the first operand's payload and Go may
// commute the operands, so only where NaN appears is part of the contract.
func eqBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g != g && w != w {
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: bit mismatch at %d: got %08x (%g) want %08x (%g)",
				name, i, math.Float32bits(g), g, math.Float32bits(w), w)
		}
	}
}

// operand returns n values at offset off inside a larger backing array, so
// the kernels see unaligned sub-slices with live data on both sides.
func operand(fill func(*rand.Rand, []float32), rng *rand.Rand, n, off int) []float32 {
	buf := make([]float32, off+n+3)
	fill(rng, buf)
	return buf[off : off+n : off+n]
}

// clone copies s into a fresh slice at the same offset inside its own
// backing array.
func clone(s []float32, off int) []float32 {
	buf := make([]float32, off+len(s))
	copy(buf[off:], s)
	return buf[off:]
}

// TestKernelBitIdentity proves every kernel bit-identical to its naive
// reference on every shape, including non-zero starting accumulators (the
// residual-stream case), operands at odd offsets, and a pass with ±Inf,
// NaN and -0 mixed into every operand. On amd64 with AVX2 the kernels run
// their assembly, so this is the oracle of kernels_amd64.s.
func TestKernelBitIdentity(t *testing.T) {
	passes := []struct {
		name string
		fill func(*rand.Rand, []float32)
		off  int
	}{
		{"finite", fill, 0},
		{"offset", fill, 3},
		{"special", fillSpecial, 1},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(fmt.Sprintf("%dx%d", sh.rows, sh.cols), func(t *testing.T) {
			for _, ps := range passes {
				ps := ps
				t.Run(ps.name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(sh.rows)<<16 | int64(sh.cols)))
					op := func(n int) []float32 { return operand(ps.fill, rng, n, ps.off) }
					x := op(sh.rows)
					y := op(sh.cols)
					w := op(sh.rows * sh.cols)
					accInit := op(sh.cols)
					dxInit := op(sh.rows)
					gwInit := op(sh.rows * sh.cols)
					cp := func(s []float32) []float32 { return clone(s, ps.off) }
					checkKernels(t, sh.rows, sh.cols, x, y, w, accInit, dxInit, gwInit, cp)
				})
			}
		})
	}
}

func checkKernels(t *testing.T, rows, cols int, x, y, w, accInit, dxInit, gwInit []float32, cp func([]float32) []float32) {
	t.Helper()
	accK, accN := cp(accInit), cp(accInit)
	AddMatVec(accK, x, w, rows, cols)
	naiveAddMatVec(accN, x, w, rows, cols)
	eqBits(t, "AddMatVec", accK, accN)

	dstK, dstN := cp(accInit), cp(accInit)
	MatVecInto(dstK, accInit, x, w, rows, cols)
	naiveAddMatVec(dstN, x, w, rows, cols)
	eqBits(t, "MatVecInto", dstK, dstN)

	dotK, dotN := cp(dxInit), cp(dxInit)
	DotRowsInto(dotK, y, w, rows, cols)
	naiveDotRowsInto(dotN, y, w, rows, cols)
	eqBits(t, "DotRowsInto", dotK, dotN)

	for _, set := range []bool{true, false} {
		gwK, gwN := cp(gwInit), cp(gwInit)
		dxK, dxN := cp(dxInit), cp(dxInit)
		if set {
			BackProjSet(gwK, dxK, x, y, w, rows, cols)
		} else {
			BackProjAdd(gwK, dxK, x, y, w, rows, cols)
		}
		naiveBackProj(gwN, dxN, x, y, w, rows, cols, set)
		eqBits(t, fmt.Sprintf("BackProj(set=%v).gw", set), gwK, gwN)
		eqBits(t, fmt.Sprintf("BackProj(set=%v).dx", set), dxK, dxN)
	}

	gwK, gwN := cp(gwInit), cp(gwInit)
	OuterAdd(gwK, x, y, rows, cols)
	naiveOuterAdd(gwN, x, y, rows, cols)
	eqBits(t, "OuterAdd", gwK, gwN)

	for i := 0; i < rows; i++ {
		axK, axN := cp(accInit), cp(accInit)
		Axpy(axK, x[i], y)
		for j := range axN {
			axN[j] += float32(x[i] * y[j])
		}
		eqBits(t, "Axpy", axK, axN)
	}
}

// TestKernelShortOperandsPanic pins the bounds contract: an operand shorter
// than its shape panics in Go, before any assembly runs.
func TestKernelShortOperandsPanic(t *testing.T) {
	const rows, cols = 5, 12
	x, dx := make([]float32, rows), make([]float32, rows)
	y, acc := make([]float32, cols), make([]float32, cols)
	w, gw := make([]float32, rows*cols), make([]float32, rows*cols)
	for name, call := range map[string]func(){
		"AddMatVec short w":    func() { AddMatVec(acc, x, w[1:], rows, cols) },
		"AddMatVec short x":    func() { AddMatVec(acc, x[1:], w, rows, cols) },
		"AddMatVec short acc":  func() { AddMatVec(acc[1:], x, w, rows, cols) },
		"DotRowsInto short w":  func() { DotRowsInto(dx, y, w[1:], rows, cols) },
		"DotRowsInto short dx": func() { DotRowsInto(dx[1:], y, w, rows, cols) },
		"BackProjSet short w":  func() { BackProjSet(gw, dx, x, y, w[1:], rows, cols) },
		"BackProjSet short gw": func() { BackProjSet(gw[1:], dx, x, y, w, rows, cols) },
		"BackProjAdd short x":  func() { BackProjAdd(gw, dx, x[1:], y, w, rows, cols) },
		"BackProjAdd short dx": func() { BackProjAdd(gw, dx[1:], x, y, w, rows, cols) },
		"BackProjAdd short dy": func() { BackProjAdd(gw, dx, x, y[1:], w, rows, cols) },
		"OuterAdd short gw":    func() { OuterAdd(gw[1:], x, y, rows, cols) },
		"OuterAdd short x":     func() { OuterAdd(gw, x[1:], y, rows, cols) },
		"Axpy short src":       func() { Axpy(acc, 2, y[1:]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
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

// BenchmarkKernels measures the dispatched kernels against their Go
// references at the realtrain projection shapes, in ns per multiply-add.
// Axpy runs one matrix row per call.
func BenchmarkKernels(b *testing.B) {
	type impl struct {
		name string
		run  func(acc, dx, x, y, w, gw []float32, rows, cols int)
	}
	kernels := []struct {
		name  string
		impls [2]impl
	}{
		{"AddMatVec", [2]impl{
			{"lanes", func(acc, dx, x, y, w, gw []float32, rows, cols int) { AddMatVec(acc, x, w, rows, cols) }},
			{"generic", func(acc, dx, x, y, w, gw []float32, rows, cols int) { addMatVecGeneric(acc, x, w, rows, cols) }},
		}},
		{"BackProjAdd", [2]impl{
			{"lanes", func(acc, dx, x, y, w, gw []float32, rows, cols int) { BackProjAdd(gw, dx, x, y, w, rows, cols) }},
			{"generic", func(acc, dx, x, y, w, gw []float32, rows, cols int) {
				outerAddGeneric(gw, x, y, rows, cols)
				dotRowsGeneric(dx, y, w, rows, cols, true)
			}},
		}},
		{"Axpy", [2]impl{
			{"lanes", func(acc, dx, x, y, w, gw []float32, rows, cols int) {
				for i := 0; i < rows; i++ {
					Axpy(gw[i*cols:(i+1)*cols], x[i], y)
				}
			}},
			{"generic", func(acc, dx, x, y, w, gw []float32, rows, cols int) {
				for i := 0; i < rows; i++ {
					outerAddGeneric(gw[i*cols:(i+1)*cols], x[i:i+1], y, 1, cols)
				}
			}},
		}},
	}
	for _, sh := range []struct{ rows, cols int }{{32, 32}, {128, 8}, {32, 128}} {
		rng := rand.New(rand.NewSource(1))
		x := make([]float32, sh.rows)
		y := make([]float32, sh.cols)
		w := make([]float32, sh.rows*sh.cols)
		for _, s := range [][]float32{x, y, w} {
			for i := range s {
				s[i] = float32(rng.NormFloat64()) // normal values: no subnormal assists
			}
		}
		for _, k := range kernels {
			for _, im := range k.impls {
				b.Run(fmt.Sprintf("%s/%dx%d/%s", k.name, sh.rows, sh.cols, im.name), func(b *testing.B) {
					acc := make([]float32, sh.cols)
					dx := make([]float32, sh.rows)
					gw := make([]float32, sh.rows*sh.cols)
					for i := 0; i < b.N; i++ {
						im.run(acc, dx, x, y, w, gw, sh.rows, sh.cols)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sh.rows*sh.cols), "ns/madd")
				})
			}
		}
	}
}
