package core

import (
	"fmt"
	"testing"

	"teco/internal/cxl"
	"teco/internal/modelzoo"
	"teco/internal/phases"
)

// tinyModel is a scaled-down transformer used for the dense cross-check
// grids: per-line simulation fires one event per 64-byte cache line, so
// full-size models are reserved for the targeted full-scale cases below.
func tinyModel() modelzoo.Model {
	return modelzoo.Model{
		Name:          "tiny-xcheck",
		Kind:          modelzoo.TransformerEncoder,
		Params:        1 << 20,
		ComputeParams: 1 << 20,
		Layers:        4,
		Hidden:        256,
		Heads:         4,
		SeqLen:        64,
	}
}

// stepBothModes runs one step with the coalesced fast path and the per-line
// reference path and returns both results.
func stepBothModes(t *testing.T, cfg Config, m modelzoo.Model, batch int) (co, pl phases.StepResult) {
	t.Helper()
	cfgCo, cfgPl := cfg, cfg
	cfgCo.PerLine = false
	cfgPl.PerLine = true
	eCo, err := NewEngine(cfgCo)
	if err != nil {
		t.Fatal(err)
	}
	ePl, err := NewEngine(cfgPl)
	if err != nil {
		t.Fatal(err)
	}
	return eCo.Step(m, batch), ePl.Step(m, batch)
}

// TestCoalesceBitIdenticalGrid is the tentpole acceptance test: across
// variants, batch sizes, BERs, dirty-byte widths and the degradation
// policy, the coalesced and per-line paths must produce byte-identical
// StepResults (every sim.Time, every byte counter, every fault stat).
func TestCoalesceBitIdenticalGrid(t *testing.T) {
	m := tinyModel()
	variants := []struct {
		name string
		cfg  Config
	}{
		{"cxl", Config{}},
		{"reduction", Config{DBA: true}},
		{"invalidation", Config{Invalidation: true}},
	}
	bers := []float64{0, 1e-6, 1e-5, 1e-4}
	dirties := []int{1, 2, 4}
	for _, v := range variants {
		for _, batch := range []int{4, 16} {
			for _, ber := range bers {
				for _, db := range dirties {
					if db != 2 && !v.cfg.DBA {
						continue // dirty_bytes only matters under DBA
					}
					cfg := v.cfg
					cfg.DirtyBytes = db
					if ber > 0 {
						cfg.Faults = cxl.FaultConfig{Seed: 11, BER: ber}
						cfg.Degrade = v.cfg.DBA && ber >= 1e-4
					}
					co, pl := stepBothModes(t, cfg, m, batch)
					if co != pl {
						t.Errorf("%s batch=%d ber=%g dirty=%d: coalesced %+v != per-line %+v",
							v.name, batch, ber, db, co, pl)
					}
				}
			}
		}
	}
}

// TestCoalesceBitIdenticalPaperConfigs cross-checks the configurations the
// accuracy experiments (fig2, table5, fig10, fig13) and the fault sweep
// evaluate: the paper's proxy models under TECO-CXL and TECO-Reduction, and
// every cell of the fault sweep's grid around BER 1e-5 at seed 7.
// Clean (pristine-link) runs simulate every cache line of the full-size
// model in per-line mode, so the cheaper models carry the clean coverage
// and the larger ones ride on the fault-injected path (where both modes
// must hand runs to the retry engine whole, making the cells cheap). T5's
// clean full-size run is covered by the tiny grid above plus its faulted
// cells here.
func TestCoalesceBitIdenticalPaperConfigs(t *testing.T) {
	type cfgCase struct {
		name  string
		m     modelzoo.Model
		batch int
		cfg   Config
	}
	cases := []cfgCase{
		// fig13 / time-to-loss timing config: GPT-2 proxy, batch 4.
		{"gpt2-cxl-clean", modelzoo.GPT2(), 4, Config{}},
		{"gpt2-reduction-clean", modelzoo.GPT2(), 4, Config{DBA: true}},
		// fault-sweep configs (Bert-large-cased, batch 4) at the sweep's
		// own BER grid points, dirty_bytes 1/2/4.
		{"bert-dba1-ber1e-6", modelzoo.BertLargeCased(), 4,
			Config{DBA: true, DirtyBytes: 1, Faults: cxl.FaultConfig{Seed: 42, BER: 1e-6}}},
		{"bert-dba2-ber1e-5", modelzoo.BertLargeCased(), 4,
			Config{DBA: true, DirtyBytes: 2, Faults: cxl.FaultConfig{Seed: 42, BER: 1e-5}}},
		{"bert-dba4-ber5e-4-degrade", modelzoo.BertLargeCased(), 4,
			Config{DBA: true, DirtyBytes: 4, Degrade: true, Faults: cxl.FaultConfig{Seed: 42, BER: 5e-4}}},
		{"bert-inval-ber1e-5", modelzoo.BertLargeCased(), 4,
			Config{Invalidation: true, Faults: cxl.FaultConfig{Seed: 42, BER: 1e-5}}},
		{"albert-cxl-ber1e-6", modelzoo.AlbertXXLarge(), 4,
			Config{Faults: cxl.FaultConfig{Seed: 42, BER: 1e-6}}},
		{"t5-reduction-ber1e-5", modelzoo.T5Large(), 4,
			Config{DBA: true, Faults: cxl.FaultConfig{Seed: 42, BER: 1e-5}}},
	}
	if !testing.Short() {
		// Full-size clean runs for the remaining table5/fig2 proxies
		// (~3s each in per-line mode; skipped under -short).
		cases = append(cases,
			cfgCase{"bert-reduction-clean", modelzoo.BertLargeCased(), 4, Config{DBA: true}},
			cfgCase{"albert-cxl-clean", modelzoo.AlbertXXLarge(), 4, Config{}},
		)
	}
	// The fault sweep's cells as it builds them for seed 7, BER 1e-5: its
	// grid is {0, BER/10, BER, BER*10} in float64 arithmetic (BER/10 is not
	// the literal 1e-6). The clean dirty_bytes=2 cell is bert-reduction-clean
	// above, and the other clean cells simulate every line of Bert-large, so
	// they share its -short exemption.
	sweepBER := 1e-5
	for _, ber := range []float64{0, sweepBER / 10, sweepBER, sweepBER * 10} {
		for _, db := range []int{1, 2, 4} {
			if ber == 0 && (db == 2 || testing.Short()) {
				continue
			}
			cases = append(cases, cfgCase{fmt.Sprintf("bert-sweep-dba%d-ber%.0e", db, ber), modelzoo.BertLargeCased(), 4,
				Config{DBA: true, DirtyBytes: db, Faults: cxl.FaultConfig{Seed: 7, BER: ber}}})
		}
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			co, pl := stepBothModes(t, c.cfg, c.m, c.batch)
			if co != pl {
				t.Errorf("coalesced %+v != per-line %+v", co, pl)
			}
		})
	}
}
