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

func TestEngineOrdering(t *testing.T) {
	eng := New()
	var order []int
	eng.At(30, func() { order = append(order, 3) })
	eng.At(10, func() { order = append(order, 1) })
	eng.At(20, func() { order = append(order, 2) })
	eng.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if eng.Now() != 30 {
		t.Fatalf("final time = %v", eng.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	eng := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		eng.At(5, func() { order = append(order, i) })
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
	var chain func()
	chain = func() {
		hits++
		if hits < 5 {
			eng.After(10, chain)
		}
	}
	eng.After(10, chain)
	end := eng.Run()
	if hits != 5 {
		t.Fatalf("hits = %d", hits)
	}
	if end != 50 {
		t.Fatalf("end = %v, want 50", end)
	}
}

func TestEngineCancel(t *testing.T) {
	eng := New()
	fired := false
	ev := eng.At(10, func() { fired = true })
	eng.Cancel(ev)
	eng.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
	// Double-cancel and cancel-after-fire must be no-ops.
	eng.Cancel(ev)
	ev2 := eng.At(eng.Now()+1, func() {})
	eng.Run()
	eng.Cancel(ev2)
}

func TestSchedulingInPastPanics(t *testing.T) {
	eng := New()
	eng.At(10, func() {})
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	eng.At(5, func() {})
}

func TestRunUntil(t *testing.T) {
	eng := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		eng.At(at, func() { fired = append(fired, at) })
	}
	eng.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want 2 events", fired)
	}
	if eng.Now() != 25 {
		t.Fatalf("now = %v, want 25", eng.Now())
	}
	eng.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired = %v, want all 4", fired)
	}
}

// Property: for any set of (time, id) pairs, the engine fires them in
// nondecreasing time order, FIFO within equal times.
func TestEngineOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		eng := New()
		var fired []Time
		for _, ti := range times {
			at := Time(ti)
			eng.At(at, func() { fired = append(fired, at) })
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
	ok := true
	for i := 0; i < n; i++ {
		at := Time(rng.Int63n(1_000_000))
		eng.At(at, func() {
			if eng.Now() < last {
				ok = false
			}
			last = eng.Now()
		})
	}
	eng.Run()
	if !ok {
		t.Fatal("time went backwards")
	}
	if eng.Fired() != n {
		t.Fatalf("fired = %d, want %d", eng.Fired(), n)
	}
}
