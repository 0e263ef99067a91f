package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestResolve(t *testing.T) {
	if Resolve(0) != runtime.GOMAXPROCS(0) || Resolve(-3) != runtime.GOMAXPROCS(0) {
		t.Fatal("non-positive workers must resolve to GOMAXPROCS")
	}
	if Resolve(7) != 7 {
		t.Fatal("explicit workers must pass through")
	}
	if HotResolve(0) != 1 || HotResolve(1) != 1 {
		t.Fatal("hot paths must default to serial")
	}
	if HotResolve(-1) != runtime.GOMAXPROCS(0) || HotResolve(5) != 5 {
		t.Fatal("hot-path resolution")
	}
}

// TestRunDeterministicOrdering forces out-of-order completion and asserts
// results land at their point index.
func TestRunDeterministicOrdering(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 2, 8} {
		out, err := Run(context.Background(), workers, n, func(_ context.Context, i int) (int, error) {
			// Later points finish earlier.
			time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestRunFirstErrorAbortsPool checks that a failing point cancels the rest,
// the lowest-indexed error is the one returned, and no goroutine leaks.
func TestRunFirstErrorAbortsPool(t *testing.T) {
	before := runtime.NumGoroutine()
	var started atomic.Int64
	_, err := Run(context.Background(), 4, 100, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		if i == 7 || i == 3 {
			return 0, fmt.Errorf("point %d failed", i)
		}
		select { // simulate work that honours cancellation
		case <-ctx.Done():
		case <-time.After(2 * time.Millisecond):
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	// Both 3 and 7 may fail depending on scheduling, but the reported error
	// must be the lowest-indexed one that actually failed; with 4 workers
	// point 3 always starts.
	if err.Error() != "point 3 failed" {
		t.Fatalf("error = %v, want the lowest-indexed failure", err)
	}
	if got := started.Load(); got == 100 {
		t.Fatal("pool ran every point despite an early failure")
	}
	waitForGoroutines(t, before)
}

func TestRunExternalCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Run(ctx, 4, 1000, func(ctx context.Context, i int) (int, error) {
			ran.Add(1)
			time.Sleep(time.Millisecond)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	<-done
	if ran.Load() == 1000 {
		t.Fatal("cancellation did not stop the sweep")
	}
	waitForGoroutines(t, before)
}

func TestRunSerialCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, 1, 10, func(context.Context, int) (int, error) { return 0, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("serial path ignored cancelled context: %v", err)
	}
}

// TestRunBoundsConcurrency verifies no more than `workers` points run at
// once.
func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	_, err := Run(context.Background(), workers, 50, func(_ context.Context, i int) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(500 * time.Microsecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent points with %d workers", p, workers)
	}
}

func TestRunZeroAndNegativeN(t *testing.T) {
	out, err := Run(context.Background(), 4, 0, func(context.Context, int) (int, error) { return 1, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("n=0: out=%v err=%v", out, err)
	}
	out, err = Run(context.Background(), 4, -5, func(context.Context, int) (int, error) { return 1, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("n=-5: out=%v err=%v", out, err)
	}
}

// TestChunkBoundariesWorkerIndependent is the chunking rule behind the
// bit-identity guarantee: boundaries depend only on n.
func TestChunkBoundariesWorkerIndependent(t *testing.T) {
	for _, n := range []int{0, 1, chunkQuantum - 1, chunkQuantum, chunkQuantum + 1, 5*chunkQuantum + 17} {
		var want [][2]int
		for c := 0; c < Chunks(n); c++ {
			lo, hi := chunkBounds(c, n)
			want = append(want, [2]int{lo, hi})
		}
		for _, workers := range []int{1, 2, 8} {
			got := make([][2]int, Chunks(n))
			var idx atomic.Int64
			ForChunks(workers, n, func(lo, hi int) {
				got[idx.Add(1)-1] = [2]int{lo, hi}
			})
			if workers == 1 && n > 0 {
				// Serial fast path runs one [0,n) span; that's fine for
				// element-wise fns. MapChunks must still chunk identically.
				continue
			}
			seen := map[[2]int]bool{}
			for _, b := range got {
				seen[b] = true
			}
			for _, b := range want {
				if n > 0 && !seen[b] {
					t.Fatalf("n=%d workers=%d: chunk %v missing (got %v)", n, workers, b, got)
				}
			}
		}
	}
}

func TestForChunksCoversEveryElementOnce(t *testing.T) {
	const n = 3*chunkQuantum + 123
	for _, workers := range []int{1, 2, 8} {
		marks := make([]int32, n)
		ForChunks(workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&marks[i], 1)
			}
		})
		for i, m := range marks {
			if m != 1 {
				t.Fatalf("workers=%d: element %d visited %d times", workers, i, m)
			}
		}
	}
}

// TestMapChunksOrderAndExactReduction sums integers per chunk and combines
// in chunk order: the result must match a serial sum at every worker count.
func TestMapChunksOrderAndExactReduction(t *testing.T) {
	const n = 4*chunkQuantum + 77
	var want int64
	for i := 0; i < n; i++ {
		want += int64(i)
	}
	for _, workers := range []int{1, 2, 8} {
		parts := MapChunks(workers, n, func(lo, hi int) int64 {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i)
			}
			return s
		})
		if len(parts) != Chunks(n) {
			t.Fatalf("workers=%d: %d parts, want %d", workers, len(parts), Chunks(n))
		}
		var got int64
		for _, p := range parts {
			got += p
		}
		if got != want {
			t.Fatalf("workers=%d: sum %d, want %d", workers, got, want)
		}
	}
}

func TestFirstIndexDeterministic(t *testing.T) {
	const n = 6*chunkQuantum + 9
	hits := map[int]bool{2*chunkQuantum + 5: true, 4 * chunkQuantum: true, n - 1: true}
	for _, workers := range []int{1, 2, 8} {
		got := FirstIndex(workers, n, func(i int) bool { return hits[i] })
		if got != 2*chunkQuantum+5 {
			t.Fatalf("workers=%d: first index %d, want %d", workers, got, 2*chunkQuantum+5)
		}
		if FirstIndex(workers, n, func(int) bool { return false }) != -1 {
			t.Fatalf("workers=%d: miss must return -1", workers)
		}
	}
}

// TestRunCtxReturnsImmediatelyOnCancel is the sweep-service contract: a
// cancelled sweep must not drain the grid, must not wait for a slow
// in-flight point, and must still release every worker with no goroutine
// leak once that point finishes.
func TestRunCtxReturnsImmediatelyOnCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var started atomic.Int64
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	out, err := RunCtx(ctx, 4, 1000, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		if i < 4 {
			<-release // the first wave blocks far past the cancellation
		}
		return i, nil
	})
	returned := time.Since(t0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("cancelled RunCtx must not expose partial results")
	}
	if returned > time.Second {
		t.Fatalf("RunCtx took %v to notice cancellation — it drained instead of returning", returned)
	}
	if started.Load() == 1000 {
		t.Fatal("cancellation did not stop the sweep")
	}
	close(release) // let the abandoned workers finish their point
	waitForGoroutines(t, before)
}

// TestRunCtxCleanCompletion: without cancellation RunCtx is Run.
func TestRunCtxCleanCompletion(t *testing.T) {
	before := runtime.NumGoroutine()
	out, err := RunCtx(context.Background(), 3, 50, func(_ context.Context, i int) (int, error) {
		return i * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	waitForGoroutines(t, before)
}

func TestGateAdmitsUpToSlots(t *testing.T) {
	g := NewGate(2, 4)
	ctx := context.Background()
	if err := g.Enter(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.Enter(ctx); err != nil {
		t.Fatal(err)
	}
	if len(g.slots) != 2 {
		t.Fatalf("slots held = %d, want 2", len(g.slots))
	}
	g.Leave()
	g.Leave()
	if len(g.slots) != 0 {
		t.Fatalf("slots held = %d after Leave, want 0", len(g.slots))
	}
}

// TestGateShedsBeyondQueue fills the slots and the queue and asserts the
// next caller is shed immediately with ErrSaturated, not blocked.
func TestGateShedsBeyondQueue(t *testing.T) {
	const slots, queue = 2, 3
	g := NewGate(slots, queue)
	ctx := context.Background()
	for i := 0; i < slots; i++ {
		if err := g.Enter(ctx); err != nil {
			t.Fatal(err)
		}
	}
	queuedErrs := make(chan error, queue)
	for i := 0; i < queue; i++ {
		go func() { queuedErrs <- g.Enter(ctx) }()
	}
	// Wait until all three are actually queued.
	deadline := time.Now().Add(2 * time.Second)
	for g.Queued() != queue {
		if time.Now().After(deadline) {
			t.Fatalf("Queued = %d, want %d", g.Queued(), queue)
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := g.Enter(ctx); !errors.Is(err, ErrSaturated) {
		t.Fatalf("overflow Enter = %v, want ErrSaturated", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("shedding took %v — must be immediate", d)
	}
	// Draining the slots admits the queued callers.
	g.Leave()
	g.Leave()
	for i := 0; i < 2; i++ {
		if err := <-queuedErrs; err != nil {
			t.Fatal(err)
		}
	}
	g.Leave() // one of the admitted pair
	if err := <-queuedErrs; err != nil {
		t.Fatal(err)
	}
}

// TestGateQueuedCancellation: a queued caller whose deadline expires leaves
// the queue with ctx.Err() and frees its waiting place.
func TestGateQueuedCancellation(t *testing.T) {
	g := NewGate(1, 2)
	if err := g.Enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := g.Enter(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Enter = %v, want DeadlineExceeded", err)
	}
	if g.Queued() != 0 {
		t.Fatalf("Queued = %d after timeout, want 0", g.Queued())
	}
	g.Leave()
}

// waitForGoroutines asserts the goroutine count returns to (roughly) the
// pre-call level — the pool joins every worker before returning.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
		runtime.GC()
	}
	t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
}
