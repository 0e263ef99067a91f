package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"teco"
	"teco/bench/spec"
)

var gridBatches = []int{4, 8, 16}

// gridTime returns the mean host time of one teco.Simulate call over the
// model workloads' grid (Table III models x batches), in microseconds.
func gridTime(sys teco.System, sweeps int) float64 {
	models := teco.Models()
	calls := sweeps * len(models) * len(gridBatches)
	d := medianTime(7, func() {
		for s := 0; s < sweeps; s++ {
			for _, m := range models {
				for _, b := range gridBatches {
					teco.Simulate(sys, m, b, teco.SimConfig{})
				}
			}
		}
	})
	return float64(d) / 1e3 / float64(calls)
}

// coreGroup times one simulated TECO step per system.
var coreGroup = group{"core", []string{"core.step_us.cxl", "core.step_us.dba", "core.step_us.inval"}, func(c *ctx) (map[string]float64, error) {
	return map[string]float64{
		"core.step_us.cxl":   gridTime(teco.TECOCXL, 200),
		"core.step_us.dba":   gridTime(teco.TECOReduction, 200),
		"core.step_us.inval": gridTime(teco.TECOInvalidation, 200),
	}, nil
}}

// zeroGroup times one simulated ZeRO-Offload step and counts the bytes it
// allocates: the baseline engine is the cost of every cold paper request.
var zeroGroup = group{"zero", []string{"zero.step_us", "zero.alloc_bytes_per_step"}, func(c *ctx) (map[string]float64, error) {
	us := gridTime(teco.ZeroOffload, 1)
	models := teco.Models()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, m := range models {
		for _, b := range gridBatches {
			teco.Simulate(teco.ZeroOffload, m, b, teco.SimConfig{})
		}
	}
	runtime.ReadMemStats(&after)
	return map[string]float64{
		"zero.step_us":              us,
		"zero.alloc_bytes_per_step": float64(after.TotalAlloc-before.TotalAlloc) / float64(len(models)*len(gridBatches)),
	}, nil
}}

// replayGroup times each functional replay at the replay workload's size
// and sets the replay's cost per line against the leaf layers it is built
// from: what is left is the glue inside core's replay loop.
var replayGroup = group{"core/replay", []string{
	"core.replay_us_per_line.full", "core.replay_us_per_line.dba", "core.replay_us_per_line.inval",
	"core.replay_us_per_line.grad", "core.replay_self_pct",
}, func(c *ctx) (map[string]float64, error) {
	const words = spec.ReplayParams
	rng := rand.New(rand.NewSource(c.seed))
	old, updated := teco.NewTensor("old", words), teco.NewTensor("updated", words)
	for i := 0; i < words; i++ {
		v := float32(rng.NormFloat64())
		old.Set(i, v)
		updated.Set(i, v*(1+1e-4*float32(rng.NormFloat64())))
	}
	out := map[string]float64{}
	for name, cfg := range map[string]teco.ReplayConfig{
		"full": {}, "dba": {DBA: true, DirtyBytes: 2}, "inval": {Invalidation: true},
	} {
		t0 := time.Now()
		_, st, err := teco.ReplayUpdate(old, updated, cfg)
		if err != nil {
			return nil, err
		}
		out["core.replay_us_per_line."+name] = float64(time.Since(t0)) / 1e3 / float64(st.Lines)
	}
	t0 := time.Now()
	_, st, err := teco.ReplayGradients(updated, teco.ReplayConfig{})
	if err != nil {
		return nil, err
	}
	out["core.replay_us_per_line.grad"] = float64(time.Since(t0)) / 1e3 / float64(st.Lines)

	// The DBA replay's leaves, per line: aggregate, packet codec,
	// disaggregate, and the protocol's write and flush. Their groups come
	// earlier in the table and are measured on the same workload.
	leaves := 0.0
	for _, m := range []string{"dba.aggregate_ns_per_line", "dba.disaggregate_ns_per_line", "cxl.packet_codec_ns", "coherence.write_ns_per_line", "coherence.flush_ns_per_line"} {
		ns, ok := c.got[m]
		if !ok {
			return nil, fmt.Errorf("leaf metric %s was not measured before the replay", m)
		}
		leaves += ns / 1e3
	}
	out["core.replay_self_pct"] = 100 * math.Max(0, 1-leaves/out["core.replay_us_per_line.dba"])
	return out, nil
}}
