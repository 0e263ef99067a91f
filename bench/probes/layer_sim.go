package main

import "teco/internal/sim"

// chain is a pooled handler that reschedules itself until left is zero.
type chain struct {
	eng  *sim.Engine
	left int
}

func (h *chain) Fire(now sim.Time) {
	if h.left--; h.left > 0 {
		h.eng.AtHandler(now+1, h)
	}
}

// simGroup times the event engine: 1 M pooled events through a heap that
// holds 64 at a time.
var simGroup = group{"sim", []string{"sim.event_ns"}, func(c *ctx) (map[string]float64, error) {
	const events, inFlight = 1 << 20, 64
	d := medianTime(5, func() {
		eng := sim.New()
		for i := 0; i < inFlight; i++ {
			eng.AtHandler(sim.Time(i), &chain{eng, events / inFlight})
		}
		eng.Run()
	})
	return map[string]float64{"sim.event_ns": float64(d) / events}, nil
}}
