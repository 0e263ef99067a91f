package optim

import "teco/internal/kernels"

// update runs the AVX2 body over the whole 4-element groups when the
// kernels' CPU probe allows it, and the Go reference over the rest.
func update(p, g, m, v []float32, k adamStep) {
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	n := 0
	if kernels.AVX2() {
		n = len(p) &^ 3
	}
	if n > 0 {
		adamAVX2(&p[0], &g[0], &m[0], &v[0], n, &k)
	}
	if n < len(p) {
		updateGeneric(p[n:], g[n:], m[n:], v[n:], k)
	}
}

// adamAVX2 is updateGeneric over n (a positive multiple of 4) elements,
// four float64 lanes at a time.
//
//go:noescape
func adamAVX2(p, grad, m, v *float32, n int, k *adamStep)
