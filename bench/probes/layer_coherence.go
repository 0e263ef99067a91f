package main

import (
	"sort"
	"time"

	"teco/bench/spec"
	"teco/internal/cache"
	"teco/internal/coherence"
	"teco/internal/mem"
)

// coherenceGroup drives the update protocol the way one replay does — seed
// every line on the accelerator, write every line from the CPU, flush — over
// the replay workload's lines, and times the set-associative cache's
// access path on its own.
var coherenceGroup = group{"coherence", []string{"coherence.write_ns_per_line", "coherence.flush_ns_per_line", "cache.access_ns"}, func(c *ctx) (map[string]float64, error) {
	const lines = spec.ReplayParams / 16
	var write, flush []float64
	for rep := 0; rep < 5; rep++ {
		amap := mem.NewMap()
		region := amap.Allocate("params", mem.RegionGiantCache, lines*mem.LineSize)
		dom := coherence.NewDomain(coherence.Config{Mode: coherence.Update, AddrMap: amap})
		base := region.Base.Line()
		for l := mem.LineAddr(0); l < lines; l++ {
			dom.Seed(base+l, coherence.Accelerator)
		}
		t0 := time.Now()
		for l := mem.LineAddr(0); l < lines; l++ {
			dom.Write(base+l, coherence.CPU)
		}
		t1 := time.Now()
		dom.FlushCPU()
		t2 := time.Now()
		write, flush = append(write, float64(t1.Sub(t0))/lines), append(flush, float64(t2.Sub(t1))/lines)
	}
	const accesses = 1 << 20
	l3 := cache.New(cache.Gem5L3())
	acc := medianTime(7, func() {
		for i := 0; i < accesses; i++ {
			l3.Access(mem.LineAddr(i%400000), i%3 == 0)
		}
	})
	return map[string]float64{
		"coherence.write_ns_per_line": middle(write),
		"coherence.flush_ns_per_line": middle(flush),
		"cache.access_ns":             float64(acc) / accesses,
	}, nil
}}

func middle(v []float64) float64 {
	sort.Float64s(v)
	return v[len(v)/2]
}
