package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1_000_000_000_000*Picosecond {
		t.Fatalf("second = %d ps", int64(Second))
	}
	if got := (2500 * Microsecond).Milliseconds(); got != 2.5 {
		t.Fatalf("Milliseconds = %v, want 2.5", got)
	}
	if got := (1500 * Picosecond).Nanoseconds(); got != 1.5 {
		t.Fatalf("Nanoseconds = %v, want 1.5", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{2 * Nanosecond, "2.000ns"},
		{3 * Microsecond, "3.000us"},
		{4 * Millisecond, "4.000ms"},
		{5 * Second, "5.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d ps => %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestFromSecondsSaturates(t *testing.T) {
	if FromSeconds(1e30) <= 0 {
		t.Fatal("saturation should stay positive")
	}
	if FromSeconds(-1) != 0 {
		t.Fatal("negative seconds should clamp to 0")
	}
	if got, want := FromSeconds(1.5), 1500*Millisecond; got != want {
		t.Fatalf("FromSeconds(1.5) = %v, want %v", got, want)
	}
}

func TestDurationForBytes(t *testing.T) {
	// 16 GB/s, 64 bytes => 4 ns (paper §VIII-D: "each cache line takes
	// around 4 ns" on the CXL interface).
	got := DurationForBytes(64, 16e9)
	if got < 3900*Picosecond || got > 4100*Picosecond {
		t.Fatalf("64B @ 16GB/s = %v, want ~4ns", got)
	}
	if DurationForBytes(0, 16e9) != 0 {
		t.Fatal("zero bytes should take zero time")
	}
	if DurationForBytes(64, 0) != 0 {
		t.Fatal("zero bandwidth treated as instantaneous (disabled link)")
	}
}

// fn adapts a closure to Handler for the tests below.
type fn func(now Time)

func (f fn) Fire(now Time) { f(now) }

func TestEngineOrdering(t *testing.T) {
	eng := New()
	var order []Time
	record := fn(func(now Time) { order = append(order, now) })
	eng.AtHandler(30, record)
	eng.AtHandler(10, record)
	eng.AtHandler(20, record)
	end := eng.Run()
	if len(order) != 3 || order[0] != 10 || order[1] != 20 || order[2] != 30 {
		t.Fatalf("order = %v", order)
	}
	if end != 30 || len(eng.events) != 0 {
		t.Fatalf("final time %v, pending %d", end, len(eng.events))
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	eng := New()
	var order []int
	for i := 0; i < 10; i++ {
		eng.AtHandler(5, fn(func(Time) { order = append(order, i) }))
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	eng := New()
	hits := 0
	var chain fn
	chain = func(now Time) {
		hits++
		if hits < 5 {
			eng.AtHandler(now+10, chain)
		}
	}
	eng.AtHandler(10, chain)
	end := eng.Run()
	if hits != 5 {
		t.Fatalf("hits = %d", hits)
	}
	if end != 50 {
		t.Fatalf("end = %v, want 50", end)
	}
}

// TestSchedulingInPastPanics schedules behind the clock from inside a
// handler, the way a modelling bug would.
func TestSchedulingInPastPanics(t *testing.T) {
	eng := New()
	eng.AtHandler(10, fn(func(now Time) { eng.AtHandler(now-1, fn(func(Time) {})) }))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	eng.Run()
}

// Property: for any set of (time, id) pairs, the engine fires them in
// nondecreasing time order, FIFO within equal times.
func TestEngineOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		eng := New()
		var fired []Time
		for _, ti := range times {
			eng.AtHandler(Time(ti), fn(func(now Time) { fired = append(fired, now) }))
		}
		eng.Run()
		if len(fired) != len(times) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineManyRandomEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	eng := New()
	const n = 10000
	var last Time
	ok, fired := true, 0
	for i := 0; i < n; i++ {
		at := Time(rng.Int63n(1_000_000))
		eng.AtHandler(at, fn(func(now Time) {
			if now < last || now != eng.now {
				ok = false
			}
			last = now
			fired++
		}))
	}
	eng.Run()
	if !ok {
		t.Fatal("time went backwards")
	}
	if fired != n {
		t.Fatalf("fired = %d, want %d", fired, n)
	}
}
