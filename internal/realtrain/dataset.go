// Package realtrain runs real (not modelled) FP32 training: an
// embedding + MLP softmax classifier fine-tuned on a synthetic token task
// with a genuine ADAM optimizer, where the parameter path between the CPU
// master copy and the accelerator compute copy applies TECO's dirty-byte
// merge bit-exactly. It is the substrate for every accuracy/convergence
// experiment in the paper: Figure 2 (value-changed-byte distributions),
// Figure 10 (loss curves), Table V (final accuracy), and Figure 13
// (act_aft_steps sweep).
//
// The paper fine-tunes pre-trained HuggingFace transformers; we substitute
// a task with the same *numerical* structure — a pre-trained model nudged
// by small gradients, with a sparsely-updated embedding table (the source
// of the paper's "44.5% of parameters do not change values across two
// consecutive training steps") — because the DBA approximation acts on FP32
// byte patterns, not on model semantics (see DESIGN.md).
package realtrain

import (
	"math"
	"math/rand"
)

// Dataset is a synthetic token-classification task: each example is a bag
// of token ids whose label comes from a fixed random teacher over a hidden
// ground-truth embedding.
type Dataset struct {
	Vocab     int
	TokensPer int
	Dim       int
	Classes   int
	TrainTok  [][]int
	TrainY    []int
	TestTok   [][]int
	TestY     []int
}

// DatasetConfig sizes the synthetic task.
type DatasetConfig struct {
	Vocab     int // vocabulary size (default 512)
	TokensPer int // tokens per example (default 8)
	Dim       int // embedding dimension (default 32)
	Classes   int // label classes (default 8)
	Train     int // training examples (default 4096)
	Test      int // test examples (default 1024)
	Seed      int64
}

func (c DatasetConfig) withDefaults() DatasetConfig {
	if c.Vocab == 0 {
		c.Vocab = 4096
	}
	if c.TokensPer == 0 {
		c.TokensPer = 8
	}
	if c.Dim == 0 {
		c.Dim = 32
	}
	if c.Classes == 0 {
		c.Classes = 8
	}
	if c.Train == 0 {
		c.Train = 8192
	}
	if c.Test == 0 {
		c.Test = 1024
	}
	return c
}

// NewDataset generates the task deterministically from cfg.Seed.
func NewDataset(cfg DatasetConfig) *Dataset {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Hidden ground truth: an embedding per token and a linear teacher.
	truth := make([][]float32, cfg.Vocab)
	for v := range truth {
		truth[v] = make([]float32, cfg.Dim)
		for d := range truth[v] {
			truth[v][d] = float32(rng.NormFloat64())
		}
	}
	teacher := make([][]float32, cfg.Classes)
	for c := range teacher {
		teacher[c] = make([]float32, cfg.Dim)
		for d := range teacher[c] {
			teacher[c][d] = float32(rng.NormFloat64())
		}
	}
	// Zipf-like (log-uniform) token frequencies: low ids are common, the
	// long tail is rare — like real vocabulary usage, which is what
	// leaves a large share of embedding rows untouched across
	// consecutive steps (the paper's 44.5%% observation).
	logV := math.Log(float64(cfg.Vocab) + 1)
	drawTok := func() int {
		return int(math.Exp(rng.Float64()*logV)) - 1
	}
	gen := func(n int) ([][]int, []int) {
		toks := make([][]int, n)
		ys := make([]int, n)
		for i := 0; i < n; i++ {
			tok := make([]int, cfg.TokensPer)
			x := make([]float32, cfg.Dim)
			for j := range tok {
				tok[j] = drawTok()
				if tok[j] >= cfg.Vocab {
					tok[j] = cfg.Vocab - 1
				}
				for d := range x {
					x[d] += truth[tok[j]][d]
				}
			}
			best, bestV := 0, float32(-1e30)
			for c := range teacher {
				var s float32
				for d := range x {
					s += float32(teacher[c][d] * x[d])
				}
				if s > bestV {
					best, bestV = c, s
				}
			}
			if rng.Float64() < 0.05 { // 5% label noise
				best = rng.Intn(cfg.Classes)
			}
			toks[i], ys[i] = tok, best
		}
		return toks, ys
	}
	ds := &Dataset{Vocab: cfg.Vocab, TokensPer: cfg.TokensPer, Dim: cfg.Dim, Classes: cfg.Classes}
	ds.TrainTok, ds.TrainY = gen(cfg.Train)
	ds.TestTok, ds.TestY = gen(cfg.Test)
	return ds
}

// Batch samples a minibatch of indices from the training set.
func (d *Dataset) Batch(rng *rand.Rand, size int) []int {
	return d.BatchInto(rng, nil, size)
}

// BatchInto is Batch appending into buf's spare capacity — the
// allocation-free form for the per-step training loop. The RNG draw
// sequence is identical to Batch's.
func (d *Dataset) BatchInto(rng *rand.Rand, buf []int, size int) []int {
	buf = buf[:0]
	for i := 0; i < size; i++ {
		buf = append(buf, rng.Intn(len(d.TrainTok)))
	}
	return buf
}
