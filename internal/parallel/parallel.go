// Package parallel is the repo's one concurrency substrate: a bounded
// worker-pool sweep runner with deterministic result ordering, and chunked
// loop helpers for the intra-step hot paths (ADAM update, dirty-byte scan,
// CRC guards).
//
// The package enforces a determinism contract that every caller relies on
// and the determinism test harnesses assert end to end:
//
//   - Run stores each point's result at its point index, so the output
//     order is the grid order regardless of completion order, and on
//     failure it reports the error of the lowest-indexed failing point —
//     both independent of scheduling.
//   - ForChunks/MapChunks partition [0,n) into fixed-quantum chunks whose
//     boundaries depend only on n, never on the worker count, and MapChunks
//     returns per-chunk values in chunk order. A caller that combines chunk
//     results in that order therefore reduces in a schedule-independent
//     order; the hot paths only combine with exact operations (integer
//     counter addition, min-index) or run purely element-wise loops, so no
//     floating-point reduction order changes between workers=1 and
//     workers=N.
//
// Two worker-knob conventions coexist (see Resolve and HotResolve): the
// sweep runner treats workers <= 0 as GOMAXPROCS, while the hot-path
// helpers treat 0 as "serial" (so the zero-value config keeps today's
// single-threaded behavior) and negative as GOMAXPROCS. workers == 1 is
// always the inline serial fallback (no goroutines).
package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve maps the sweep-runner workers knob to an effective worker
// count: non-positive selects GOMAXPROCS (the pool never oversubscribes
// scheduling threads by default), anything else is returned as-is.
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// HotResolve maps the intra-step (hot-path) workers knob: 0 and 1 run the
// serial fallback — a zero value must leave single-threaded semantics and
// cost untouched — while a negative value selects GOMAXPROCS. The split
// from Resolve is deliberate: sweeps default to "all cores", per-step
// loops default to "off".
func HotResolve(workers int) int {
	switch {
	case workers < 0:
		return runtime.GOMAXPROCS(0)
	case workers == 0:
		return 1
	default:
		return workers
	}
}

// Run executes fn(ctx, i) for every i in [0, n) on at most `workers`
// goroutines and returns the results indexed by i. The first error (by
// point index, not completion time) cancels the derived context, stops
// workers from starting new points, and is returned after every goroutine
// has exited — Run never leaks goroutines, even on error or cancellation.
// A canceled ctx aborts the sweep with ctx's error.
func Run[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n < 0 {
		n = 0
	}
	out := make([]T, n)
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			v, err := fn(ctx, i)
			if err != nil {
				return out, err
			}
			out[i] = v
		}
		return out, nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var failed atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || cctx.Err() != nil {
					return
				}
				v, err := fn(cctx, i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					cancel()
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return out, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// RunCtx is Run with a hard cancellation guarantee for long-running grids:
// when ctx is cancelled it returns ctx.Err() immediately — without waiting
// for in-flight points to finish — instead of draining the rest of the
// grid. Workers stop picking up new points, finish (and discard) their
// current one, and exit on their own; the sweep service uses this so a
// request deadline is honoured even when a single grid point runs for
// seconds. On cancellation the returned slice is nil: in-flight points may
// still be writing into the abandoned result storage, so no partial results
// can be exposed. A clean completion returns exactly what Run returns.
func RunCtx[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n < 0 {
		n = 0
	}
	workers = Resolve(workers)
	if workers <= 1 || n <= 1 {
		// The serial path checks ctx between points, so it already returns
		// promptly (point granularity) and has no workers to abandon.
		return Run(ctx, 1, n, fn)
	}
	type result struct {
		out []T
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := Run(ctx, workers, n, fn)
		done <- result{out, err}
	}()
	select {
	case r := <-done:
		return r.out, r.err
	case <-ctx.Done():
		// The inner Run observes the same ctx, stops dispatching, joins its
		// workers and sends on the buffered channel — no goroutine leaks,
		// the caller just doesn't wait for the join.
		return nil, ctx.Err()
	}
}

// ErrSaturated reports an admission queue at capacity: the work was shed,
// not queued. Callers translate it into back-pressure (the sweep service
// answers 503 with Retry-After).
var ErrSaturated = errors.New("parallel: admission queue saturated")

// Gate is a bounded admission queue: at most `slots` holders run at once
// and at most `queue` waiters block for a slot; anything beyond that is
// shed immediately with ErrSaturated. It is the load-shedding front door of
// the sweep service — compute never oversubscribes and waiting is bounded,
// so overload degrades into fast, explicit rejections instead of latency
// collapse.
type Gate struct {
	slots    chan struct{}
	queued   atomic.Int64
	maxQueue int64
}

// NewGate builds a gate with `slots` concurrent holders (<= 0: GOMAXPROCS)
// and `queue` waiting places (< 0: 0, shed as soon as the slots are full).
func NewGate(slots, queue int) *Gate {
	if queue < 0 {
		queue = 0
	}
	return &Gate{
		slots:    make(chan struct{}, Resolve(slots)),
		maxQueue: int64(queue),
	}
}

// Enter claims a slot, waiting in the bounded queue if none is free. It
// returns ErrSaturated when the queue is full (load shed) and ctx.Err()
// when the caller's deadline expires while queued. A nil return must be
// paired with exactly one Leave.
func (g *Gate) Enter(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	if g.queued.Add(1) > g.maxQueue {
		g.queued.Add(-1)
		return ErrSaturated
	}
	defer g.queued.Add(-1)
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Leave releases a slot claimed by Enter.
func (g *Gate) Leave() { <-g.slots }

// Queued returns the number of callers blocked waiting for a slot.
func (g *Gate) Queued() int { return int(g.queued.Load()) }

// chunkQuantum is the fixed chunk size (in elements) of ForChunks and
// MapChunks. Boundaries are multiples of the quantum regardless of the
// worker count, which is what makes chunked reductions combine in a
// worker-count-independent order.
const chunkQuantum = 16384

// Chunks returns the number of fixed-quantum chunks covering [0, n).
func Chunks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + chunkQuantum - 1) / chunkQuantum
}

// chunkBounds returns chunk c's half-open element range.
func chunkBounds(c, n int) (lo, hi int) {
	lo = c * chunkQuantum
	hi = lo + chunkQuantum
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ChunkBounds returns chunk c's half-open element range over [0, n). It is
// the exported form of the fixed-quantum partition: callers that combine
// per-chunk results (guard sums, distribution merges) index their scratch
// by c and reduce in ascending c, which depends only on n — never on the
// worker count.
func ChunkBounds(c, n int) (lo, hi int) { return chunkBounds(c, n) }

// ForChunks runs fn over fixed-quantum chunks of [0, n) on at most
// `workers` goroutines and returns when all chunks are done. fn must only
// touch elements in [lo, hi) — chunks are disjoint, so element-wise loops
// need no locking and produce bit-identical results at any worker count.
// workers <= 1 (or a single chunk) runs inline; the serial path is
// allocation-free (no wrapper closure), since it sits inside the trainer's
// zero-alloc steady-state step.
func ForChunks(workers, n int, fn func(lo, hi int)) {
	nc := Chunks(n)
	if w := HotResolve(workers); w <= 1 || nc <= 1 {
		for c := 0; c < nc; c++ {
			lo, hi := chunkBounds(c, n)
			fn(lo, hi)
		}
		return
	}
	ForChunksIndexed(workers, n, func(_, lo, hi int) { fn(lo, hi) })
}

// ForChunksIndexed is ForChunks with the chunk index passed through: fn
// receives (c, lo, hi) where [lo, hi) = ChunkBounds(c, n). The index is
// what lets an epilogue write per-chunk partials (CRCs, scan hits, byte
// distributions) into preallocated slots and combine them later in chunk
// order without allocating — the fused ADAM pass is the canonical caller.
// The serial fast path still runs the whole range as chunk-granular calls,
// so per-chunk partial layouts are identical at every worker count.
func ForChunksIndexed(workers, n int, fn func(c, lo, hi int)) {
	nc := Chunks(n)
	workers = HotResolve(workers)
	if workers > nc {
		workers = nc
	}
	if workers <= 1 {
		for c := 0; c < nc; c++ {
			lo, hi := chunkBounds(c, n)
			fn(c, lo, hi)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nc {
					return
				}
				lo, hi := chunkBounds(c, n)
				fn(c, lo, hi)
			}
		}()
	}
	wg.Wait()
}

// MapChunks runs fn over fixed-quantum chunks of [0, n) on at most
// `workers` goroutines and returns the per-chunk values in chunk order.
// Combining them in slice order reduces in an order that depends only on
// n; with exact combine operations (integer adds, min) the result is
// bit-identical to a serial pass.
func MapChunks[T any](workers, n int, fn func(lo, hi int) T) []T {
	nc := Chunks(n)
	out := make([]T, nc)
	workers = HotResolve(workers)
	if workers > nc {
		workers = nc
	}
	if workers <= 1 {
		for c := 0; c < nc; c++ {
			lo, hi := chunkBounds(c, n)
			out[c] = fn(lo, hi)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nc {
					return
				}
				lo, hi := chunkBounds(c, n)
				out[c] = fn(lo, hi)
			}
		}()
	}
	wg.Wait()
	return out
}

// FirstIndex returns the smallest i in [0, n) with pred(i) true, or -1.
// The parallel path evaluates fixed-quantum chunks concurrently and takes
// the minimum over per-chunk first hits, so the answer is the serial one
// regardless of scheduling (min is exact).
func FirstIndex(workers, n int, pred func(i int) bool) int {
	scan := func(lo, hi int) int {
		for i := lo; i < hi; i++ {
			if pred(i) {
				return i
			}
		}
		return -1
	}
	if HotResolve(workers) <= 1 || Chunks(n) <= 1 {
		return scan(0, n)
	}
	for _, hit := range MapChunks(workers, n, scan) {
		if hit >= 0 {
			return hit
		}
	}
	return -1
}
