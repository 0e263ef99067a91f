package mem_test

import (
	"testing"

	"teco/internal/mem"
	"teco/internal/modelzoo"
	"teco/internal/sim"
)

// The device constants are calibration inputs to the cost model and the
// tiering/offload sweeps; these tests pin them so a drive-by edit cannot
// silently recalibrate every golden.

func TestDeviceConstantsPinned(t *testing.T) {
	for _, tc := range []struct {
		d       *mem.DRAM
		name    string
		bw      float64
		latency sim.Time
	}{
		{mem.HostDDR4(), "host-DDR4", 128e9, 90 * sim.Nanosecond},
		{mem.CXLExpander(), "cxl-expander", 16e9 * 0.943, 180 * sim.Nanosecond},
	} {
		if tc.d.Name != tc.name {
			t.Errorf("device name %q, want %q", tc.d.Name, tc.name)
		}
		if tc.d.BytesPerSecond != tc.bw {
			t.Errorf("%s bandwidth %g, want %g", tc.name, tc.d.BytesPerSecond, tc.bw)
		}
		if tc.d.AccessLatency != tc.latency {
			t.Errorf("%s latency %v, want %v", tc.name, tc.d.AccessLatency, tc.latency)
		}
	}
}

// TestCXLExpanderBandwidthIsLinkBandwidth: the far tier's sustained
// bandwidth IS the effective CXL link bandwidth — two spellings of one
// physical constant that must never drift apart.
func TestCXLExpanderBandwidthIsLinkBandwidth(t *testing.T) {
	if got, want := mem.CXLExpander().BytesPerSecond, modelzoo.CXLLinkBandwidth(); got != want {
		t.Fatalf("CXL expander bandwidth %g != modelzoo link bandwidth %g", got, want)
	}
}

// TestTierOrdering: fast tier strictly faster and lower latency than far —
// the premise of every tiering policy.
func TestTierOrdering(t *testing.T) {
	fast, far := mem.HostDDR4(), mem.CXLExpander()
	if fast.BytesPerSecond <= far.BytesPerSecond {
		t.Fatal("host DDR4 not faster than the CXL expander")
	}
	if fast.AccessLatency >= far.AccessLatency {
		t.Fatal("host DDR4 latency not below the CXL expander's")
	}
}

// TestStreamTimeScales: streaming is pure bandwidth (no latency term) and
// linear in bytes up to integer-picosecond rounding (each conversion may
// round once, so 4× one conversion can differ from one 4× conversion by a
// few picoseconds).
func TestStreamTimeScales(t *testing.T) {
	d := mem.CXLExpander()
	one := d.StreamTime(1 << 20)
	four := d.StreamTime(4 << 20)
	if diff := four - 4*one; diff < -4 || diff > 4 {
		t.Fatalf("stream time not linear: %v vs 4×%v (diff %d ps)", four, one, diff)
	}
	if d.StreamTime(0) != 0 {
		t.Fatal("zero bytes stream in nonzero time")
	}
}
