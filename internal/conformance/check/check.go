// Package check is the runtime invariant layer of the conformance harness
// (see DESIGN.md "Conformance and invariants"). The simulator packages —
// sim, cxl, coherence, dba, phases, core, realtrain — call Check at the
// points where a conservation law, a monotonicity property or a protocol
// legality rule must hold. The layer is off by default and costs one
// predictable branch on a relaxed atomic load per call site, so the hot
// paths (the event engine fires tens of millions of events per suite) pay
// nothing measurable; tests switch it on with Enable(t), build-tag free,
// and every violation lands as a test failure on the enabling test.
//
// check is a leaf package: it imports nothing from the repository, so every
// simulator package can depend on it without cycles.
package check

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// TB is the subset of *testing.T the layer needs. Declared locally so
// non-test code importing check does not pull in the testing package's
// flag registration.
type TB interface {
	Helper()
	Cleanup(func())
	Errorf(format string, args ...any)
}

// Invariant is one deferred assertion: nil means the property holds, a
// non-nil error describes the violation.
type Invariant func() error

var (
	// enabled gates every instrumented call site. An atomic load keeps the
	// disabled cost at a single predictable branch even under -race.
	enabled atomic.Bool

	mu sync.Mutex
	// reporters are the currently-enabled tests, keyed for removal.
	reporters map[int]TB
	nextID    int

	// violations counts reported failures since process start (monotone;
	// tests use it to assert that a deliberately broken state is caught).
	violations atomic.Int64
)

// Enabled reports whether invariant checking is on. Instrumented code gates
// any non-trivial work on it:
//
//	if check.Enabled() {
//		check.Check(func() error { ... })
//	}
func Enabled() bool { return enabled.Load() }

// Enable switches invariant checking on for the duration of tb (it is
// switched back off by tb's Cleanup once no other test holds it open).
// Violations reported while tb is enabled fail tb via Errorf. Safe for
// concurrent use by parallel tests.
func Enable(tb TB) {
	mu.Lock()
	if reporters == nil {
		reporters = make(map[int]TB)
	}
	id := nextID
	nextID++
	reporters[id] = tb
	enabled.Store(true)
	mu.Unlock()

	tb.Cleanup(func() {
		mu.Lock()
		delete(reporters, id)
		if len(reporters) == 0 {
			enabled.Store(false)
		}
		mu.Unlock()
	})
}

// Check evaluates each invariant and reports every violation. It is a no-op
// while checking is disabled, so callers may pass closures unconditionally
// from cold paths; hot paths should gate on Enabled first to avoid building
// the closures at all.
func Check(invs ...Invariant) {
	if !Enabled() {
		return
	}
	for _, inv := range invs {
		if err := inv(); err != nil {
			Failf("%v", err)
		}
	}
}

// Failf reports one invariant violation to every enabled test. If checking
// was enabled without a live reporter (all tests finished but a goroutine
// raced past the flag), the violation panics rather than vanishing: a
// broken conservation law must never pass silently.
func Failf(format string, args ...any) {
	violations.Add(1)
	mu.Lock()
	defer mu.Unlock()
	if len(reporters) == 0 {
		panic(fmt.Sprintf("conformance violation (no reporter): "+format, args...))
	}
	for _, tb := range reporters {
		tb.Helper()
		tb.Errorf("conformance violation: "+format, args...)
	}
}
