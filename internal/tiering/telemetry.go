package tiering

import "sync/atomic"

// Process-wide tiering telemetry. Every Controller — core.RunTiered drives
// one per run — records placement events here, so the daemon's /statz
// endpoint can show tier heat and migration churn alongside the residency
// and fabric figures. Counters are monotone for the life of the process.
var telemetry struct {
	fastHits      atomic.Int64
	farAccesses   atomic.Int64
	planSteps     atomic.Int64
	migrations    atomic.Int64
	promotedBytes atomic.Int64
	demotedBytes  atomic.Int64
	deferred      atomic.Int64
}

// TierCounters is a point-in-time copy of the process-wide tiering
// telemetry, JSON-shaped for /statz.
type TierCounters struct {
	// FastHits / FarAccesses classify demand slot accesses by the tier
	// that served them.
	FastHits    int64 `json:"fast_hits"`
	FarAccesses int64 `json:"far_accesses"`
	// PlanSteps counts migration planning rounds (one per training step
	// under a tiering controller).
	PlanSteps int64 `json:"plan_steps"`
	// Migrations / PromotedBytes / DemotedBytes count hot/cold moves;
	// Deferred counts promotions pushed to a later step by the budget
	// throttle.
	Migrations    int64 `json:"migrations"`
	PromotedBytes int64 `json:"promoted_bytes"`
	DemotedBytes  int64 `json:"demoted_bytes"`
	Deferred      int64 `json:"deferred"`
}

// Counters returns the current process-wide tiering telemetry.
func Counters() TierCounters {
	return TierCounters{
		FastHits:      telemetry.fastHits.Load(),
		FarAccesses:   telemetry.farAccesses.Load(),
		PlanSteps:     telemetry.planSteps.Load(),
		Migrations:    telemetry.migrations.Load(),
		PromotedBytes: telemetry.promotedBytes.Load(),
		DemotedBytes:  telemetry.demotedBytes.Load(),
		Deferred:      telemetry.deferred.Load(),
	}
}

func recordAccess(fast bool) {
	if fast {
		telemetry.fastHits.Add(1)
	} else {
		telemetry.farAccesses.Add(1)
	}
}

// recordPlan folds the delta of one planning round into the process-wide
// counters. Called with the controller's cumulative counters; the previous
// snapshot is kept on the controller so only the delta lands.
func recordPlan(c *Controller) {
	telemetry.planSteps.Add(1)
	telemetry.migrations.Add(c.migrations - c.teleMigrations)
	telemetry.promotedBytes.Add(c.promotedBytes - c.telePromoted)
	telemetry.demotedBytes.Add(c.demotedBytes - c.teleDemoted)
	telemetry.deferred.Add(c.deferred - c.teleDeferred)
	c.teleMigrations = c.migrations
	c.telePromoted = c.promotedBytes
	c.teleDemoted = c.demotedBytes
	c.teleDeferred = c.deferred
}
