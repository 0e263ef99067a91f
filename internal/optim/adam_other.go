//go:build !amd64

package optim

func update(p, g, m, v []float32, k adamStep) { updateGeneric(p, g, m, v, k) }
