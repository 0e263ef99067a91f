// Package gnn implements GCNII (Chen et al., "Simple and Deep Graph
// Convolutional Networks", the paper's fifth workload — Table III, trained
// full-graph on a Wisconsin-scale dataset) with real forward/backward math
// and the same master/accelerator parameter split as realtrain, so the
// dirty-byte path can be validated on a graph workload too.
package gnn

import (
	"fmt"
	"math/rand"
	"sort"

	"teco/internal/kernels"
)

// Graph is an undirected graph with node features and labels, plus the
// symmetric-normalized adjacency (with self-loops) used by graph
// convolutions: Â = D^-1/2 (A+I) D^-1/2.
type Graph struct {
	N        int
	Features [][]float32 // N x F
	Labels   []int       // N
	Classes  int
	// adj is Â in CSR-ish form: per-node neighbour index/weight lists.
	adjIdx [][]int32
	adjW   [][]float32
	// Train/Val/Test are node masks (Wisconsin-style 48/32/20 split).
	Train, Val, Test []int
}

// GraphConfig sizes the synthetic dataset. Defaults mimic the Wisconsin
// graph's scale (251 nodes).
type GraphConfig struct {
	Nodes   int     // default 251
	Feat    int     // feature dimension (default 32)
	Classes int     // default 5
	IntraP  float64 // intra-community edge probability (default 0.10)
	InterP  float64 // inter-community edge probability (default 0.02)
	Seed    int64
}

func (c GraphConfig) withDefaults() GraphConfig {
	if c.Nodes == 0 {
		c.Nodes = 251
	}
	if c.Feat == 0 {
		c.Feat = 32
	}
	if c.Classes == 0 {
		c.Classes = 5
	}
	if c.IntraP == 0 {
		c.IntraP = 0.05
	}
	if c.InterP == 0 {
		c.InterP = 0.03
	}
	return c
}

// NewGraph builds a planted-partition graph: nodes belong to communities;
// features are noisy community centroids; labels are the communities.
func NewGraph(cfg GraphConfig) *Graph {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &Graph{N: cfg.Nodes, Classes: cfg.Classes}

	centroids := make([][]float32, cfg.Classes)
	for c := range centroids {
		centroids[c] = make([]float32, cfg.Feat)
		for d := range centroids[c] {
			centroids[c][d] = float32(rng.NormFloat64()) * 0.5
		}
	}
	g.Labels = make([]int, cfg.Nodes)
	g.Features = make([][]float32, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		c := i % cfg.Classes
		g.Labels[i] = c
		g.Features[i] = make([]float32, cfg.Feat)
		for d := range g.Features[i] {
			g.Features[i][d] = centroids[c][d] + 1.5*float32(rng.NormFloat64())
		}
	}

	// Edges.
	adj := make([]map[int]bool, cfg.Nodes)
	for i := range adj {
		adj[i] = map[int]bool{i: true} // self-loop
	}
	for i := 0; i < cfg.Nodes; i++ {
		for j := i + 1; j < cfg.Nodes; j++ {
			p := cfg.InterP
			if g.Labels[i] == g.Labels[j] {
				p = cfg.IntraP
			}
			if rng.Float64() < p {
				adj[i][j] = true
				adj[j][i] = true
			}
		}
	}
	// Symmetric normalization.
	deg := make([]float64, cfg.Nodes)
	for i := range adj {
		deg[i] = float64(len(adj[i]))
	}
	g.adjIdx = make([][]int32, cfg.Nodes)
	g.adjW = make([][]float32, cfg.Nodes)
	for i := range adj {
		neigh := make([]int, 0, len(adj[i]))
		for j := range adj[i] {
			neigh = append(neigh, j)
		}
		sort.Ints(neigh) // deterministic accumulation order
		for _, j := range neigh {
			g.adjIdx[i] = append(g.adjIdx[i], int32(j))
			w := 1.0 / (sqrt(deg[i]) * sqrt(deg[j]))
			g.adjW[i] = append(g.adjW[i], float32(w))
		}
	}

	// Wisconsin-style 48/32/20 split, deterministic shuffle.
	perm := rng.Perm(cfg.Nodes)
	nTrain := cfg.Nodes * 48 / 100
	nVal := cfg.Nodes * 32 / 100
	g.Train = perm[:nTrain]
	g.Val = perm[nTrain : nTrain+nVal]
	g.Test = perm[nTrain+nVal:]
	return g
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 1
	}
	// Newton iterations are plenty for degree-scale values.
	x := v
	for i := 0; i < 24; i++ {
		x = 0.5 * (x + v/x)
	}
	return x
}

// Propagate computes out = Â * in for an N x d feature matrix.
func (g *Graph) Propagate(in [][]float32, out [][]float32) {
	if len(in) != g.N || len(out) != g.N {
		panic(fmt.Sprintf("gnn: propagate over %d/%d rows, graph has %d", len(in), len(out), g.N))
	}
	for i := 0; i < g.N; i++ {
		row := out[i]
		clear(row)
		for nIdx, j := range g.adjIdx[i] {
			kernels.Axpy(row, g.adjW[i][nIdx], in[j])
		}
	}
}

// Edges returns the number of directed adjacency entries (including
// self-loops) — the propagation work per layer.
func (g *Graph) Edges() int {
	n := 0
	for _, idx := range g.adjIdx {
		n += len(idx)
	}
	return n
}
