package cpusim

import (
	"testing"

	"teco/internal/modelzoo"
	"teco/internal/sim"
)

func TestAdamTimeCalibration(t *testing.T) {
	c := Xeon6120()
	m := modelzoo.BertLargeCased()
	// 334M params * 20 B / 90 GB/s ~= 74 ms.
	got := c.AdamTime(m.Params).Milliseconds()
	if got < 60 || got > 90 {
		t.Fatalf("Bert ADAM time = %.1fms, calibration drifted", got)
	}
	// Linear in params.
	if c.AdamTime(2*m.Params) != 2*c.AdamTime(m.Params) {
		t.Fatal("ADAM time must be linear in parameter count")
	}
}

func TestClipCheaperThanAdam(t *testing.T) {
	c := Xeon6120()
	n := int64(100e6)
	if c.ClipTime(n) >= c.AdamTime(n) {
		t.Fatal("clipping touches less memory than ADAM")
	}
}

func TestPanicsOnNonPositive(t *testing.T) {
	c := Xeon6120()
	for _, fn := range []func(){
		func() { c.AdamTime(0) },
		func() { c.ClipTime(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestFillFasterThanBaselineLink(t *testing.T) {
	c := Xeon6120()
	// "The buffer filling is much faster than the parameter transfer."
	n := int64(64 << 20)
	fill := c.FillTime(n)
	xfer := sim.DurationForBytes(n, modelzoo.BaselineLinkBandwidth())
	if fill >= xfer {
		t.Fatalf("fill %v must beat transfer %v", fill, xfer)
	}
}

func TestUpdateSchedule(t *testing.T) {
	c := Xeon6120()
	m := modelzoo.T5Large()
	s := c.UpdateSchedule(m)
	if s.N != m.Layers {
		t.Fatalf("%d chunks", s.N)
	}
	adam := c.AdamTime(m.Params)
	if s.Span != adam {
		t.Fatalf("schedule spans %v, want ADAM's %v", s.Span, adam)
	}
	var total int64
	prev := sim.Time(-1)
	for i := range s.N {
		at, b := s.Chunk(i)
		total += b
		if at <= prev || at > adam {
			t.Fatalf("chunk %d schedule broken: %v (adam %v)", i, at, adam)
		}
		prev = at
	}
	if total != m.ParamBytes() {
		t.Fatalf("chunk bytes %d != param bytes %d", total, m.ParamBytes())
	}
	if prev != adam {
		t.Fatal("last writeback lands at ADAM end")
	}
}

// The producer-rate comparison behind the paper's Fig 12 result: CPU ADAM
// produces dirty parameter lines faster than the CXL link drains them, so
// TECO-CXL's parameter phase is link-bound; halving bytes with DBA flips it
// to compute-bound (fully hidden).
func TestAdamOutpacesLinkWithoutDBA(t *testing.T) {
	c := Xeon6120()
	m := modelzoo.BertLargeCased()
	adam := c.AdamTime(m.Params)
	linkFull := sim.DurationForBytes(m.ParamBytes(), modelzoo.CXLLinkBandwidth())
	linkDBA := sim.DurationForBytes(m.ParamBytes()/2, modelzoo.CXLLinkBandwidth())
	if linkFull <= adam {
		t.Fatalf("full-line link time %v should exceed ADAM %v (link-bound)", linkFull, adam)
	}
	if linkDBA >= adam {
		t.Fatalf("DBA link time %v should hide behind ADAM %v (compute-bound)", linkDBA, adam)
	}
}
