package experiments

import (
	"fmt"

	"teco/internal/core"
	"teco/internal/modelzoo"
)

// The layers sweeps chart the tentpole of per-layer offload scheduling
// (core.StepLayered): how much of a too-small fast tier the eager prefetch
// window can hide, and where the eviction policies part ways. Both tables
// are pure integer-picosecond simulation, so the goldens pin them byte for
// byte at seed 42.

// layersLayerGrid returns the swept layer counts; an explicit Options.Layers
// collapses the axis.
func layersLayerGrid(opt Options) []int {
	if opt.Layers > 0 {
		return []int{opt.Layers}
	}
	return []int{1, 4, 12, 24}
}

// layersCacheGrid returns the swept fast-tier sizes in percent of the
// model's parameter bytes; an explicit Options.CachePct collapses the axis.
func layersCacheGrid(opt Options) []int {
	if opt.CachePct > 0 {
		return []int{opt.CachePct}
	}
	return []int{25, 50, 100}
}

// layersPrefetchDepth is the scheduled column's look-ahead (default 1: the
// model is link-bound, and a deeper window thrashes small caches — that
// cliff is the policy sweep's to chart, not this one's).
func layersPrefetchDepth(opt Options) int {
	if opt.PrefetchDepth > 0 {
		return opt.PrefetchDepth
	}
	return 1
}

// LayersSweep is the layer-count x cache-size grid (GPT-2, batch 4): per
// cell, the demand-only serial step, the prefetch-scheduled step, the
// overlap win between them, and the fast-tier churn behind it. Cells whose
// per-layer slot exceeds the cache are structurally infeasible and render
// as "n/a".
func LayersSweep(opt Options) *Table {
	t := &Table{
		ID: "layers",
		Title: fmt.Sprintf("Per-layer offload scheduling: layers x cache size "+
			"(GPT-2, batch 4, prefetch depth %d)", layersPrefetchDepth(opt)),
		Header: []string{"Layers", "Cache", "Serial", "Scheduled", "Win",
			"Misses", "Pf hits", "Evictions"},
	}
	m := modelzoo.GPT2()
	layerGrid := layersLayerGrid(opt)
	cacheGrid := layersCacheGrid(opt)
	depth := layersPrefetchDepth(opt)
	rows := grid(opt, len(layerGrid)*len(cacheGrid), func(i int) []string {
		layers := layerGrid[i/len(cacheGrid)]
		pct := cacheGrid[i%len(cacheGrid)]
		label := fmt.Sprintf("%d%%", pct)
		cache := m.ParamBytes() * int64(pct) / 100
		// A cache below the largest per-layer slot cannot hold even one layer.
		ml := m
		ml.Layers = layers
		if cache < core.SlotLayout(ml, false).Largest() {
			return []string{fmt.Sprint(layers), label, "n/a", "n/a", "n/a", "-", "-", "-"}
		}
		e := tecoEngine(opt, core.Config{DBA: true})
		serial, err := e.StepLayered(m, 4, core.LayerConfig{Layers: layers, CacheBytes: cache})
		if err != nil {
			return []string{fmt.Sprint(layers), label, "-", "-", "-", "-", "-", err.Error()}
		}
		sched, err := e.StepLayered(m, 4, core.LayerConfig{Layers: layers, CacheBytes: cache, Prefetch: depth})
		if err != nil {
			return []string{fmt.Sprint(layers), label, "-", "-", "-", "-", "-", err.Error()}
		}
		return []string{
			fmt.Sprint(layers), label,
			ms(serial.Total().Milliseconds()),
			ms(sched.Total().Milliseconds()),
			f2(float64(serial.Total())/float64(sched.Total())) + "x",
			fmt.Sprint(sched.Layer.DemandMisses),
			fmt.Sprint(sched.Layer.PrefetchHits),
			fmt.Sprint(sched.Layer.Evictions),
		}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Note("layer-k compute hides layer-k+1 transfer: the win column is the serial/scheduled step-time ratio, 1.00x when the cache already holds every layer")
	return t
}

// layersPolicySeqLen is the long-context scenario's sequence length.
func layersPolicySeqLen(opt Options) int {
	if opt.LayerSeqLen > 0 {
		return opt.LayerSeqLen
	}
	return 1024
}

// layersPolicyCachePct is the policy sweep's fast-tier size in percent of
// the model's parameter bytes.
func layersPolicyCachePct(opt Options) int {
	if opt.CachePct > 0 {
		return opt.CachePct
	}
	return 40
}

// LayersPolicySweep is the policy ablation: scenario (parameter-only short
// context vs activation-heavy long context) x eviction policy and prefetch
// depth, at a fixed undersized cache. The depth axis charts the thrash
// cliff — a window deeper than the spare cache slots evicts layers it is
// about to need — and the long-context rows add the activation spill and
// refetch traffic of Options.LayerSeqLen-token sequences.
func LayersPolicySweep(opt Options) *Table {
	t := &Table{
		ID: "layers-policy",
		Title: fmt.Sprintf("Layer eviction-policy ablation (GPT-2, batch 4, cache %d%%, long context %d tokens)",
			layersPolicyCachePct(opt), layersPolicySeqLen(opt)),
		Header: []string{"Scenario", "Policy", "Depth", "Prm", "Grad", "Total",
			"Misses", "Pf hits", "Evictions", "Writeback"},
	}
	m := modelzoo.GPT2()
	cache := m.ParamBytes() * int64(layersPolicyCachePct(opt)) / 100
	type variant struct {
		policy   string
		prefetch int
		pinned   int
	}
	variants := []variant{
		{"lru", 0, 0},
		{"lru", 1, 0},
		{"lru", 2, 0},
		{"fifo", 1, 0},
		{"pin", 1, 2},
	}
	if opt.LayerPolicy != "" {
		kept := variants[:0]
		for _, v := range variants {
			if v.policy == opt.LayerPolicy {
				kept = append(kept, v)
			}
		}
		variants = kept
	}
	if opt.PrefetchDepth > 0 {
		for i := range variants {
			if variants[i].prefetch > 0 {
				variants[i].prefetch = opt.PrefetchDepth
			}
		}
	}
	type scenario struct {
		name string
		lc   core.LayerConfig
	}
	scenarios := []scenario{
		{"short", core.LayerConfig{Layers: opt.Layers, CacheBytes: cache}},
		{"long-ctx", core.LayerConfig{Layers: opt.Layers, CacheBytes: cache,
			ActOffload: true, SeqLen: layersPolicySeqLen(opt)}},
	}
	rows := grid(opt, len(scenarios)*len(variants), func(i int) []string {
		sc := scenarios[i/len(variants)]
		v := variants[i%len(variants)]
		lc := sc.lc
		lc.Policy = v.policy
		lc.Prefetch = v.prefetch
		lc.Pinned = v.pinned
		e := tecoEngine(opt, core.Config{DBA: true})
		res, err := e.StepLayered(m, 4, lc)
		if err != nil {
			return []string{sc.name, v.policy, fmt.Sprint(v.prefetch), "-", "-", "-", "-", "-", "-", err.Error()}
		}
		return []string{
			sc.name, v.policy, fmt.Sprint(v.prefetch),
			ms(res.Prm.Milliseconds()),
			ms(res.Grad.Milliseconds()),
			ms(res.Total().Milliseconds()),
			fmt.Sprint(res.Layer.DemandMisses),
			fmt.Sprint(res.Layer.PrefetchHits),
			fmt.Sprint(res.Layer.Evictions),
			fmt.Sprintf("%dMB", res.Layer.WritebackBytes>>20),
		}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Note("the model is link-bound at this cache size, so depth 1 wins and deeper windows thrash; pinning the hot layers trades their refetches for a smaller working set")
	return t
}
