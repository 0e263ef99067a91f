package fabric

import "sync/atomic"

// Process-wide fabric telemetry. The daemon's /statz endpoint snapshots
// these alongside the cache and admission stats, so an operator can see
// port flaps and failovers without scraping logs. The counters are
// monotone for the life of the process, like every other /statz figure;
// every Switch records its failure-path events here.
var telemetry struct {
	portsDown       atomic.Int64
	failovers       atomic.Int64
	failoverRetries atomic.Int64
}

// Snapshot is a point-in-time copy of the process-wide fabric counters,
// JSON-shaped for /statz.
type Snapshot struct {
	// PortsDown counts ports killed (never revived ports subtracted:
	// the counter records events, not current state).
	PortsDown int64 `json:"ports_down"`
	// Failovers counts sends rerouted onto a spare port.
	Failovers int64 `json:"failovers"`
	// FailoverRetries counts backoff rounds spent probing for a route.
	FailoverRetries int64 `json:"failover_retries"`
}

// Counters returns the current process-wide fabric telemetry.
func Counters() Snapshot {
	return Snapshot{
		PortsDown:       telemetry.portsDown.Load(),
		Failovers:       telemetry.failovers.Load(),
		FailoverRetries: telemetry.failoverRetries.Load(),
	}
}
