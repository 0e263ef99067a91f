// Package prop is the seeded property/metamorphic harness of the
// conformance suite (see DESIGN.md "Conformance and invariants").
//
// One table-driven generator draws random configurations — bit-error rate ×
// dirty_bytes × worker count × coalescing mode × checkpoint interval — from
// a fixed seed and asserts the simulator's metamorphic laws on each draw:
//
//   - coalesced == per-line: the closed-form flow fast path and the
//     per-cache-line reference path produce bit-identical step results;
//   - workers-invariance: the parallel trainer is bit-identical at every
//     worker count;
//   - crash/restore == uninterrupted: killing a checkpointed session at an
//     arbitrary step and resuming lands on the exact same final state and
//     loss trajectory;
//   - zero-BER == fault-free: a fault model configured with error rate
//     zero leaves every timing identical to no fault model at all.
//
// TestMetamorphicFabric applies the timing relations to the switched
// fabric (one replica == bare link, zero-BER == fault-free at every width),
// and TestMetamorphicStack applies the trainer relations (workers
// invariance, crash/restore, crash/restore under injected SDC) to the
// multi-layer "stack" architecture.
//
// The harness runs with the runtime invariant layer enabled
// (conformance/check), so every conservation law fires on every drawn
// configuration. The case count is bounded by the PROP_CASES environment
// variable (CI runs a reduced count under -race); the draws themselves are
// deterministic, so case k is the same configuration on every machine.
package prop
