package sim

import "testing"

type nopHandler struct{ n int64 }

func (h *nopHandler) Fire(now Time) { h.n++ }

// BenchmarkPooledScheduling measures the steady-state event loop: schedule
// + fire through the free list. This is the event engine's hot path under
// per-line stream simulation.
func BenchmarkPooledScheduling(b *testing.B) {
	e := New()
	h := &nopHandler{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.AtHandler(Time(i), h)
		e.Step()
	}
}

// BenchmarkHeapChurn measures scheduling bursts of 128 events (the stream
// simulator's drain window) and draining them, exercising heap reordering.
func BenchmarkHeapChurn(b *testing.B) {
	e := New()
	h := &nopHandler{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := Time(i) * 128
		for k := 0; k < 128; k++ {
			e.AtHandler(base+Time(127-k), h)
		}
		e.Run()
	}
}
