package cxl

import (
	"testing"

	"teco/internal/modelzoo"
)

// TestFlitEfficiencyDerivesPaperConstant: the paper's "94.3% of PCIe
// bandwidth" emulation constant is the flit framing overhead: 64 payload
// bytes per 68-byte flit.
func TestFlitEfficiencyDerivesPaperConstant(t *testing.T) {
	eff := float64(FlitPayloadBytes) / float64(FlitBytes)
	if eff < 0.94 || eff > 0.945 {
		t.Fatalf("flit efficiency = %.4f, want ~0.941 (paper models 0.943)", eff)
	}
	if diff := modelzoo.CXLEfficiency - eff; diff < 0 || diff > 0.01 {
		t.Fatalf("modelled efficiency %.4f should sit just above the flit bound %.4f",
			modelzoo.CXLEfficiency, eff)
	}
}
