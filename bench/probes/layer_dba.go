package main

import (
	"math/rand"

	"teco/bench/spec"
	"teco/internal/dba"
	"teco/internal/tensor"
)

func seededWords(seed int64, n int) (old, updated []float32) {
	rng := rand.New(rand.NewSource(seed))
	old, updated = make([]float32, n), make([]float32, n)
	for i := range old {
		old[i] = float32(rng.NormFloat64())
		updated[i] = old[i] * (1 + 1e-4*float32(rng.NormFloat64()))
	}
	return old, updated
}

// dbaWordsGroup times the trainer's whole-tensor dirty-byte passes over
// 1 Mi words, serially (what train uses) and on W workers (what the suite's
// experiments may use).
var dbaWordsGroup = group{"dba/words", []string{
	"dba.mergewords_ns_per_word", "dba.mergewords_w_ns_per_word",
	"dba.scanchanged_ns_per_word", "dba.scanchanged_w_ns_per_word",
}, func(c *ctx) (map[string]float64, error) {
	const n = 1 << 20
	master, compute := seededWords(c.seed, n)
	var sink tensor.Distribution
	out := map[string]float64{}
	for _, v := range []struct {
		suffix  string
		workers int
	}{{"", 1}, {"_w", c.w}} {
		merge := medianTime(9, func() { dba.MergeWords(compute, master, 2, v.workers) })
		scan := medianTime(9, func() { sink = dba.ScanChanged(compute, master, v.workers) })
		out["dba.mergewords"+v.suffix+"_ns_per_word"] = float64(merge) / n
		out["dba.scanchanged"+v.suffix+"_ns_per_word"] = float64(scan) / n
	}
	_ = sink
	return out, nil
}}

// dbaLinesGroup times the per-cache-line Aggregator and Disaggregator and
// the per-word byte-change classifier, over the replay workload's lines.
var dbaLinesGroup = group{"dba/lines", []string{
	"dba.aggregate_ns_per_line", "dba.disaggregate_ns_per_line", "tensor.classify_ns_per_word",
}, func(c *ctx) (map[string]float64, error) {
	const words, lineSize, lines = spec.ReplayParams, 64, spec.ReplayParams / 16
	old, updated := seededWords(c.seed, words)
	ot, ut := tensor.FromSlice("old", old), tensor.FromSlice("updated", updated)
	line, stale, merged := make([]byte, lineSize), make([]byte, lineSize), make([]byte, lineSize)
	var payload []byte
	agg := medianTime(9, func() {
		for l := int64(0); l < lines; l++ {
			payload = dba.AppendAggregate(payload[:0], ut.EncodeLineInto(l, line), 2)
		}
	})
	// Subtract nothing: EncodeLineInto is part of what the replay pays per
	// line, and the disaggregate loop below pays it the same way.
	dis := medianTime(9, func() {
		for l := int64(0); l < lines; l++ {
			merged = dba.DisaggregateInto(merged, ot.EncodeLineInto(l, stale), payload, 2)
		}
	})
	var classes [8]int
	cls := medianTime(9, func() {
		for i := range old {
			classes[tensor.Classify(old[i], updated[i])]++
		}
	})
	return map[string]float64{
		"dba.aggregate_ns_per_line":    float64(agg) / lines,
		"dba.disaggregate_ns_per_line": float64(dis) / lines,
		"tensor.classify_ns_per_word":  float64(cls) / words,
	}, nil
}}
