package server

import (
	"context"
	"errors"
	"log"
	"runtime/debug"
	"sync"
)

// Request coalescing (singleflight) keyed by the canonical config
// fingerprint: identical in-flight requests share one computation. The
// twist over a textbook singleflight is refcounted cancellation — the
// computation runs under its own context, detached from any single
// request's deadline, and is cancelled only when *every* interested waiter
// has abandoned (deadline expired, client disconnected) or the server is
// killed. One slow client can therefore never cancel work that other
// clients are still waiting for, and work nobody wants anymore stops
// promptly instead of burning a compute slot to completion.

// flightCall is one in-flight computation.
type flightCall struct {
	done   chan struct{} // closed after val/err are set
	cancel context.CancelFunc
	refs   int // waiters still interested; guarded by the group mutex
	val    []byte
	err    error
}

// flightGroup deduplicates concurrent computations by key.
type flightGroup struct {
	mu    sync.Mutex
	calls map[uint64]*flightCall
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[uint64]*flightCall)}
}

// do returns the result of fn for key, starting it only if no computation
// for key is already in flight. The second return reports whether this
// caller shared another request's computation. fn runs on its own
// goroutine under a context derived from base; that context is cancelled
// when the last waiter abandons, so fn must treat cancellation as "nobody
// wants this anymore" and return promptly. A panic in fn is every waiter's
// error: net/http recovers panics only on a handler's own goroutine, so
// one left to escape here would kill the daemon and every request in it.
func (g *flightGroup) do(ctx, base context.Context, key uint64, fn func(context.Context) ([]byte, error)) ([]byte, bool, error) {
	g.mu.Lock()
	c, shared := g.calls[key]
	if !shared {
		runCtx, cancel := context.WithCancel(base)
		c = &flightCall{done: make(chan struct{}), cancel: cancel, refs: 0}
		g.calls[key] = c
		go func() {
			v, err := recoverCall(runCtx, fn)
			g.mu.Lock()
			c.val, c.err = v, err
			delete(g.calls, key)
			g.mu.Unlock()
			close(c.done)
			cancel()
		}()
	}
	c.refs++
	g.mu.Unlock()

	select {
	case <-c.done:
		return c.val, shared, c.err
	case <-ctx.Done():
		g.mu.Lock()
		c.refs--
		abandon := c.refs == 0
		g.mu.Unlock()
		if abandon {
			c.cancel()
		}
		return nil, shared, ctx.Err()
	}
}

// errInternal is a panicked computation's error. The panic value and stack
// go to the daemon's log, never to the client.
var errInternal = errors.New("internal error")

// recoverCall runs fn, reporting a panic in it as errInternal.
func recoverCall(ctx context.Context, fn func(context.Context) ([]byte, error)) (v []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("tecosimd: computation panicked: %v\n%s", p, debug.Stack())
			v, err = nil, errInternal
		}
	}()
	return fn(ctx)
}

// inFlight returns the number of distinct computations currently running.
func (g *flightGroup) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}
