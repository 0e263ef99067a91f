package experiments

import (
	"teco/internal/core"
	"teco/internal/modelzoo"
	"teco/internal/zero"
)

// LinkSpeedSweep is an extension experiment the paper's introduction
// motivates: tensor transfers take "~10 or ~100 of milliseconds on a PCIe
// 3.0 (or PCIe 5.0) interconnect". It sweeps the interconnect generation
// and reports how TECO's advantage evolves — faster links shrink the
// absolute transfer times but the coarse-grained exposure problem (and
// TECO's fix) persists. One link generation per grid point, fresh engines
// per point.
func LinkSpeedSweep(opt Options) *Table {
	t := &Table{
		ID:     "linkspeed",
		Title:  "Interconnect-generation sweep (Bert-large-cased, batch 4)",
		Header: []string{"Link", "Raw GB/s", "ZeRO-Offload step", "TECO-Reduction step", "Speedup"},
	}
	m := modelzoo.BertLargeCased()
	gens := []struct {
		name string
		raw  float64
	}{
		{"PCIe 3.0 x16", 16e9},
		{"PCIe 4.0 x16", 32e9},
		{"PCIe 5.0 x16", 64e9},
	}
	for _, row := range grid(opt, len(gens), func(i int) []string {
		g := gens[i]
		base := zero.NewEngine()
		base.LinkBandwidth = g.raw * modelzoo.BaselineDMAEfficiency
		teco := core.MustEngine(core.Config{DBA: true})
		teco.LinkBandwidth = g.raw * modelzoo.CXLEfficiency
		rb := base.Step(m, 4)
		rt := teco.Step(m, 4)
		return []string{g.name, f0(g.raw / 1e9),
			ms(rb.Total().Milliseconds()), ms(rt.Total().Milliseconds()),
			f2(rt.Speedup(rb)) + "x"}
	}) {
		t.AddRow(row...)
	}
	t.Note("faster links shrink the absolute gap but ZeRO-Offload's exposed transfers remain on the critical path; TECO's overlap advantage persists across generations")
	return t
}
