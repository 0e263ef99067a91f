package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"teco/internal/conformance/check"
	"teco/internal/cxl"
	"teco/internal/modelzoo"
	"teco/internal/phases"
)

// Core once had a per-line mode: every 64-byte cache line of a run was an
// event of its own, and the run completed when its last line landed (the
// paper's lines "going through the link one after another in a stream
// manner", §VIII-A). It changed no number, so it is gone; the per-line
// schedule survives as cxl's test reference, and cxl's
// TestPerLineMatchesSendFlow holds SendFlow to it run by run. The tests in
// this file hold whole steps to it: testdata/perline_steps.json records the
// StepResult the per-line engine produced for every configuration below,
// taken from that engine before it was deleted, and each coalesced step
// must equal its entry bit for bit (every sim.Time, byte counter and fault
// draw). The file is write-once, like the trainer museum: never re-record
// an entry to make a failing test pass.

// perLineSteps loads the recorded per-line results. Every field must be one
// StepResult still has, so a renamed or deleted field fails loudly instead
// of decoding to zero.
func perLineSteps(t *testing.T) map[string]phases.StepResult {
	t.Helper()
	b, err := os.ReadFile("testdata/perline_steps.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	steps := make(map[string]phases.StepResult, len(raw))
	for key, msg := range raw {
		dec := json.NewDecoder(bytes.NewReader(msg))
		dec.DisallowUnknownFields()
		var r phases.StepResult
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		steps[key] = r
	}
	return steps
}

// matchesPerLine fails t unless got is the recorded per-line result key.
func matchesPerLine(t *testing.T, steps map[string]phases.StepResult, key string, got phases.StepResult) {
	t.Helper()
	want, ok := steps[key]
	if !ok {
		t.Fatalf("%s: no recorded per-line result", key)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: coalesced %+v != per-line %+v", key, got, want)
	}
}

// tinyModel is a scaled-down transformer for the dense grid.
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

// TestCoalesceBitIdenticalGrid: across variants, batch sizes, BERs,
// dirty-byte widths and the degradation policy, the coalesced step equals
// the per-line one.
func TestCoalesceBitIdenticalGrid(t *testing.T) {
	check.Enable(t)
	steps := perLineSteps(t)
	m := tinyModel()
	variants := []struct {
		name string
		cfg  Config
	}{
		{"cxl", Config{}},
		{"reduction", Config{DBA: true}},
		{"invalidation", Config{Invalidation: true}},
	}
	for _, v := range variants {
		for _, batch := range []int{4, 16} {
			for _, ber := range []float64{0, 1e-6, 1e-5, 1e-4} {
				for _, db := range []int{1, 2, 4} {
					if db != 2 && !v.cfg.DBA {
						continue // dirty_bytes only matters under DBA
					}
					cfg := v.cfg
					cfg.DirtyBytes = db
					if ber > 0 {
						cfg.Faults = cxl.FaultConfig{Seed: 11, BER: ber}
						cfg.Degrade = v.cfg.DBA && ber >= 1e-4
					}
					key := fmt.Sprintf("grid/%s/batch=%d/ber=%g/dirty=%d", v.name, batch, ber, db)
					matchesPerLine(t, steps, key, MustEngine(cfg).Step(m, batch))
				}
			}
		}
	}
}

// TestCoalesceBitIdenticalPaperConfigs covers the configurations the
// accuracy experiments (fig2, table5, fig10, fig13) and the fault sweep
// evaluate, at full model size: the paper's proxy models under TECO-CXL and
// TECO-Reduction, and every cell of the fault sweep's grid around BER 1e-5
// at seed 7.
func TestCoalesceBitIdenticalPaperConfigs(t *testing.T) {
	check.Enable(t)
	steps := perLineSteps(t)
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
		// table5/fig2 proxies.
		{"bert-reduction-clean", modelzoo.BertLargeCased(), 4, Config{DBA: true}},
		{"albert-cxl-clean", modelzoo.AlbertXXLarge(), 4, Config{}},
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
	// The fault sweep's cells as it builds them for seed 7, BER 1e-5: its
	// grid is {0, BER/10, BER, BER*10} in float64 arithmetic (BER/10 is not
	// the literal 1e-6). The clean dirty_bytes=2 cell is
	// bert-reduction-clean above.
	sweepBER := 1e-5
	for _, ber := range []float64{0, sweepBER / 10, sweepBER, sweepBER * 10} {
		for _, db := range []int{1, 2, 4} {
			if ber == 0 && db == 2 {
				continue
			}
			cases = append(cases, cfgCase{fmt.Sprintf("bert-sweep-dba%d-ber%.0e", db, ber), modelzoo.BertLargeCased(), 4,
				Config{DBA: true, DirtyBytes: db, Faults: cxl.FaultConfig{Seed: 7, BER: ber}}})
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			matchesPerLine(t, steps, "paper/"+c.name, MustEngine(c.cfg).Step(c.m, c.batch))
		})
	}
}
