package sim

import (
	"testing"
)

// countHandler counts firings and optionally reschedules itself, modelling
// the steady-state event loop of the per-line stream simulator.
type countHandler struct {
	eng    *Engine
	fired  int
	times  []Time
	respan Time // when >0, reschedule respan after each firing, left times
	left   int
}

func (h *countHandler) Fire(now Time) {
	h.fired++
	if h.times != nil {
		h.times = append(h.times, now)
	}
	if h.left > 0 {
		h.left--
		h.eng.AtHandler(now+h.respan, h)
	}
}

func TestHandlerSchedulingOrder(t *testing.T) {
	eng := New()
	h := &countHandler{eng: eng, times: make([]Time, 0, 8)}
	eng.AtHandler(30, h)
	eng.AtHandler(10, h)
	eng.AtHandler(20, h)
	if got := eng.Run(); got != 30 {
		t.Fatalf("Run ended at %v, want 30", got)
	}
	want := []Time{10, 20, 30}
	if len(h.times) != len(want) {
		t.Fatalf("fired %d events, want %d", len(h.times), len(want))
	}
	for i, w := range want {
		if h.times[i] != w {
			t.Fatalf("firing %d at %v, want %v", i, h.times[i], w)
		}
	}
}

func TestHandlerFIFOAmongSimultaneous(t *testing.T) {
	eng := New()
	var order []int
	a := &orderHandler{&order, 1}
	b := &orderHandler{&order, 2}
	c := &orderHandler{&order, 3}
	eng.AtHandler(5, a)
	eng.AtHandler(5, b)
	eng.AtHandler(5, c)
	eng.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("simultaneous pooled events fired in order %v, want [1 2 3]", order)
	}
}

type orderHandler struct {
	order *[]int
	id    int
}

func (h *orderHandler) Fire(Time) { *h.order = append(*h.order, h.id) }

// TestPooledSchedulingAllocs asserts the satellite requirement: once the
// pool and heap are warm, the schedule-fire cycle of the event loop runs at
// 0 allocs/op.
func TestPooledSchedulingAllocs(t *testing.T) {
	eng := New()
	h := &countHandler{eng: eng}
	// Warm-up: grow the heap backing array and the free list.
	for i := 0; i < 1024; i++ {
		eng.AtHandler(eng.now+Time(i), h)
	}
	eng.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		eng.AtHandler(eng.now+Nanosecond, h)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("pooled schedule+fire cycle allocates %.1f/op, want 0", allocs)
	}
}

// TestPooledRescheduleFromHandler exercises recycle-before-fire: a handler
// that reschedules itself must reuse the event it was fired from instead of
// growing the pool.
func TestPooledRescheduleFromHandler(t *testing.T) {
	eng := New()
	h := &countHandler{eng: eng, respan: Nanosecond, left: 1000}
	eng.AtHandler(eng.now+Nanosecond, h)
	end := eng.Run()
	if h.fired != 1001 {
		t.Fatalf("fired %d, want 1001", h.fired)
	}
	if end != 1001*Nanosecond {
		t.Fatalf("ended at %v, want %v", end, 1001*Nanosecond)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		h.left = 1
		eng.AtHandler(eng.now+Nanosecond, h)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("self-rescheduling handler allocates %.1f/op, want 0", allocs)
	}
}

func TestAtHandlerPastPanics(t *testing.T) {
	eng := New()
	eng.AtHandler(10, &countHandler{eng: eng})
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("AtHandler in the past did not panic")
		}
	}()
	eng.AtHandler(5, &countHandler{eng: eng})
}
