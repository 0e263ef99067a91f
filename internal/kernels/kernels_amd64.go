package kernels

// The amd64 dispatch: the AVX2 bodies in kernels_amd64.s when the CPU
// probe allows them and the operands are non-empty, the Go references
// otherwise. Callers pass operands already resliced to their exact lengths.

func addMatVec(acc, x, w []float32, rows, cols int) {
	if !hasAVX2 || rows == 0 || cols == 0 {
		addMatVecGeneric(acc, x, w, rows, cols)
		return
	}
	addMatVecAVX2(&acc[0], &x[0], &w[0], rows, cols)
}

func dotRows(dst, y, w []float32, rows, cols int, add bool) {
	if !hasAVX2 || rows < 8 || cols == 0 {
		dotRowsGeneric(dst, y, w, rows, cols, add)
		return
	}
	r8 := rows &^ 7
	dotRowsAVX2(&dst[0], &y[0], &w[0], r8, cols, add)
	if r8 < rows {
		// The last rows mod 8 rows: rerun the tile of the last eight rows
		// into a scratch tile and keep only the rows not yet written.
		var s [8]float32
		last := rows - 8
		dotRowsAVX2(&s[0], &y[0], &w[last*cols], 8, cols, false)
		for i := r8; i < rows; i++ {
			if add {
				dst[i] += s[i-last]
			} else {
				dst[i] = s[i-last]
			}
		}
	}
}

func outerAdd(gw, x, dy []float32, rows, cols int) {
	if !hasAVX2 || rows == 0 || cols == 0 {
		outerAddGeneric(gw, x, dy, rows, cols)
		return
	}
	outerAddAVX2(&gw[0], &x[0], &dy[0], rows, cols)
}

//go:noescape
func addMatVecAVX2(acc, x, w *float32, rows, cols int)

//go:noescape
func dotRowsAVX2(dst, y, w *float32, rows, cols int, add bool)

//go:noescape
func outerAddAVX2(gw, x, dy *float32, rows, cols int)
