package main

import "teco/internal/kernels"

// kernelsGroup times the two kernels that carry the proxies' projections,
// at the MLP proxy's embedding-to-hidden shape (32 x 128).
var kernelsGroup = group{"kernels", []string{"kernels.addmatvec_gflops", "kernels.backproj_gflops"}, func(c *ctx) (map[string]float64, error) {
	const rows, cols, calls = 32, 128, 4000
	x, dx := make([]float32, rows), make([]float32, rows)
	acc, dy := make([]float32, cols), make([]float32, cols)
	w, gw := make([]float32, rows*cols), make([]float32, rows*cols)
	for i := range w {
		w[i] = float32(i%7) * 0.25
	}
	for i := range x {
		x[i] = float32(i%5) * 0.5
	}
	for i := range dy {
		dy[i] = float32(i%3) * 0.125
	}
	mv := medianTime(9, func() {
		for i := 0; i < calls; i++ {
			kernels.AddMatVec(acc, x, w, rows, cols)
		}
	})
	bp := medianTime(9, func() {
		for i := 0; i < calls; i++ {
			kernels.BackProjSet(gw, dx, x, dy, w, rows, cols)
		}
	})
	// One multiply-add per matrix element for the matvec, two (dX and dW)
	// for the fused backward projection.
	return map[string]float64{
		"kernels.addmatvec_gflops": 2 * rows * cols * calls / float64(mv),
		"kernels.backproj_gflops":  4 * rows * cols * calls / float64(bp),
	}, nil
}}
