package core

import (
	"fmt"

	"teco/internal/cxl"
	"teco/internal/mem"
	"teco/internal/modelzoo"
	"teco/internal/sim"
)

// The far-tier plane is the timing half shared by per-layer offload
// scheduling (StepLayered) and heterogeneous-memory tiering (RunTiered):
// layer-granular slots living behind their own fetch/writeback link pair,
// walked over the compute plane's phases. It runs on a private engine, so
// far-tier traffic shares no queue with the coherence streams of the step
// it rides on. Residency — which slots the fast tier holds — stays with the
// caller (staging.Residency directly, or through tiering.Controller), whose
// answer each demand access passes in.

// Slots is a model's far-tier slot layout in bytes.
type Slots []int64

// SlotLayout returns the slot layout of m: one parameter slot per layer,
// the division remainder on the last (mirroring cpusim.UpdateSchedule), and
// with optSlots a 2× optimizer-state slot (the FP32 ADAM m+v moments) after
// each (param k = slot 2k, opt k = slot 2k+1).
func SlotLayout(m modelzoo.Model, optSlots bool) Slots {
	n := int64(m.Layers)
	per := m.ParamBytes() / n
	stride := 1
	if optSlots {
		stride = 2
	}
	s := make(Slots, 0, stride*m.Layers)
	for k := int64(0); k < n; k++ {
		p := per
		if k == n-1 {
			p += m.ParamBytes() - per*n
		}
		s = append(s, p)
		if optSlots {
			s = append(s, 2*p)
		}
	}
	return s
}

// Total returns the bytes over every slot.
func (s Slots) Total() int64 {
	var t int64
	for _, b := range s {
		t += b
	}
	return t
}

// Largest returns the largest single slot — the least capacity a bounded
// fast tier must have.
func (s Slots) Largest() int64 {
	var l int64
	for _, b := range s {
		l = max(l, b)
	}
	return l
}

// planeModel is the one validator of both far-tier plane configs: the
// update protocol only, no negative knob, and the layer and sequence
// overrides applied to the model the plane runs.
func (e *Engine) planeModel(m modelzoo.Model, cfg any, layers, seqLen int, knobs ...int64) (modelzoo.Model, error) {
	if e.Config.Invalidation {
		return m, fmt.Errorf("core: far-tier planes require the update protocol")
	}
	for _, k := range append(knobs, int64(layers), int64(seqLen)) {
		if k < 0 {
			return m, fmt.Errorf("core: negative far-tier config %+v", cfg)
		}
	}
	if layers > 0 {
		m.Layers = layers
	}
	if seqLen > 0 {
		m.SeqLen = seqLen
		m.AllocSeqLen = seqLen
	}
	return m, nil
}

// farTier is one far-tier plane: the slot sizes, the link pair, and the
// completion time of each slot's fetch issued ahead of use.
type farTier struct {
	fetch, wb *cxl.Stream
	sizes     []int64
	inflight  []sim.Time // 0: no issue-ahead fetch in flight
	wire      int
}

func (e *Engine) newFarTier(sizes []int64) *farTier {
	eng := sim.New()
	return &farTier{
		fetch:    cxl.NewStream(cxl.NewLink(eng, e.LinkBandwidth, e.QueueCap), e.Config.PerLine),
		wb:       cxl.NewStream(cxl.NewLink(eng, e.LinkBandwidth, e.QueueCap), e.Config.PerLine),
		sizes:    sizes,
		inflight: make([]sim.Time, len(sizes)),
		wire:     cxl.WirePacketBytes(0),
	}
}

func (p *farTier) push(s *cxl.Stream, k int, t sim.Time) sim.Time {
	n := p.sizes[k]
	return s.PushRun(t, int(n), mem.LinesIn(n), 0, p.wire, false).Done
}

// demand prices an access to slot k at t and returns the stall compute must
// absorb: a miss streams the whole slot on the critical path; a hit costs
// only the residual of an issue-ahead fetch still in flight. ahead reports
// that the hit found such a fetch (arrived or not).
func (p *farTier) demand(k int, hit bool, t sim.Time) (stall sim.Time, ahead bool) {
	done := p.inflight[k]
	p.inflight[k] = 0
	if !hit {
		return p.push(p.fetch, k, t) - t, false
	}
	return max(done-t, 0), done != 0
}

// issue starts the fetch of slot k at t ahead of its use (a prefetch or a
// promotion).
func (p *farTier) issue(k int, t sim.Time) { p.inflight[k] = p.push(p.fetch, k, t) }

// writeback streams slot k out to the far tier at t, off the critical path
// (an activation spill or a demotion).
func (p *farTier) writeback(k int, t sim.Time) {
	p.inflight[k] = 0
	p.push(p.wb, k, t)
}

// walk visits n layers from cursor t — upward, or downward when down is set
// — advancing the cursor by each layer's telescoped share of span, and
// returns the cursor after the last.
func walk(t, span sim.Time, n int, down bool, visit func(k int, t sim.Time)) sim.Time {
	for i := 0; i < n; i++ {
		k := i
		if down {
			k = n - 1 - i
		}
		visit(k, t)
		t += span*sim.Time(i+1)/sim.Time(n) - span*sim.Time(i)/sim.Time(n)
	}
	return t
}
