//go:build !amd64

package kernels

// Off amd64 the Go references are the only bodies.

const hasAVX2 = false

func addMatVec(acc, x, w []float32, rows, cols int) { addMatVecGeneric(acc, x, w, rows, cols) }

func dotRows(dst, y, w []float32, rows, cols int, add bool) {
	dotRowsGeneric(dst, y, w, rows, cols, add)
}

func outerAdd(gw, x, dy []float32, rows, cols int) { outerAddGeneric(gw, x, dy, rows, cols) }
