// Package fabric models a switched CXL fabric: N accelerator-facing ports
// sharing switch spine bandwidth behind per-port queues, with hop latency,
// per-port fault domains (the cxl.FaultModel composed per link,
// unchanged), link-down detection, and bounded failover through spare
// ports. Switch is the timed plane internal/core drives for fabric step
// timing.
package fabric

import (
	"fmt"
	"math/rand"

	"teco/internal/conformance/check"
	"teco/internal/cxl"
	"teco/internal/sim"
)

// Timed-plane constants. HopLatency is a SwitchConfig field with no default
// on purpose: a zero hop keeps a one-port switch bit-identical to a bare
// link (the conformance equality), and the experiments opt into a
// realistic hop explicitly. Failure detection and rerouting always use the
// link-down timeout and failover budget below.
const (
	// DefaultHopLatency is the store-and-forward latency of one switch
	// hop that the fabric experiments charge (ingress + crossbar +
	// egress; CXL switch vendors quote ~100-250 ns).
	DefaultHopLatency = 100 * sim.Nanosecond
	// DefaultLinkDownTimeout is how long a sender waits on a dead port
	// before declaring the link down — the detection cost of a failure.
	DefaultLinkDownTimeout = 10 * sim.Microsecond
	// DefaultFailoverRetries bounds the route probes after a link-down
	// detection before the sender gives up.
	DefaultFailoverRetries = 3
	// DefaultFailoverBackoff is the base of the exponential, seeded-jitter
	// backoff between route probes.
	DefaultFailoverBackoff = 1 * sim.Microsecond
)

// SwitchConfig configures the timed switch plane.
type SwitchConfig struct {
	// Ports is the number of accelerator-facing (logical) ports.
	Ports int
	// SparePorts adds idle physical ports that failover can route onto.
	SparePorts int
	// HostPorts is the number of host-side uplinks the spine aggregates;
	// the spine bandwidth is HostPorts × the per-port bandwidth, so
	// Ports/HostPorts is the oversubscription ratio. 0 selects Ports
	// (non-blocking).
	HostPorts int
	// Bandwidth is the per-port link bandwidth; <= 0 selects the CXL
	// effective default (as cxl.NewLink does).
	Bandwidth float64
	// QueueCap is the per-port pending-queue depth (<= 0: cxl default).
	QueueCap int
	// HopLatency is the added switch traversal latency per flow. Zero
	// means cut-through with no hop cost, which keeps a one-port switch
	// bit-identical to a bare link.
	HopLatency sim.Time
	// Faults is the per-port fault template: port i runs
	// PortFaultConfig(Faults, i), so port 0 keeps the template's seed
	// and every port draws from an independent reproducible stream.
	Faults cxl.FaultConfig
}

// PortFaultConfig derives port i's fault config from the template: the
// seed moves to an independent stream per port while every other knob is
// shared. Port 0 keeps the template seed exactly, which is what makes a
// one-port fabric replay the single-link engines bit-for-bit.
func PortFaultConfig(base cxl.FaultConfig, port int) cxl.FaultConfig {
	base.Seed += int64(port) * 1000003
	return base
}

// SwitchStats is the per-switch accounting (distinct from the process-wide
// telemetry: a Switch is built per step by the timing engine).
type SwitchStats struct {
	// Flows and Bytes count payload flows accepted across all ports.
	Flows, Bytes int64
	// SpineBytes is the volume that crossed the shared spine (equals
	// Bytes: conservation, asserted by CheckInvariants).
	SpineBytes int64
	// SpineQueued is the cumulative time flows waited for the spine —
	// the oversubscription cost.
	SpineQueued sim.Time
	// PortsDown / Failovers / FailoverRetries / FailedSends count
	// failure-path events.
	PortsDown       int64
	Failovers       int64
	FailoverRetries int64
	FailedSends     int64
}

// spine models the shared switch core as a single cut-through resource:
// a flow of n bytes begins arriving at the egress side hop-latency after
// its ingress port starts delivering, and occupies the spine for
// n / spine-bandwidth. Uncontended, a flow leaves the spine exactly
// hop-latency after it left its port — so a zero-hop, uncontended switch
// adds nothing, which is the degenerate-equality anchor.
type spine struct {
	bw     float64
	freeAt sim.Time
	bytes  int64
	queued sim.Time
}

func (s *spine) pass(portDone sim.Time, n int, hop sim.Time) sim.Time {
	svc := sim.DurationForBytes(int64(n), s.bw)
	arrival := portDone + hop - svc
	if arrival < 0 {
		arrival = 0
	}
	start := arrival
	if s.freeAt > start {
		s.queued += s.freeAt - start
		start = s.freeAt
	}
	out := start + svc
	s.freeAt = out
	s.bytes += int64(n)
	return out
}

// port is one physical switch port: a full cxl link with its own fault
// domain.
type port struct {
	link *cxl.Link
	up   bool
	// bound is the logical port routed over this physical port, -1 for
	// an unassigned spare.
	bound int
	bytes int64
}

// Switch is the timed fabric plane: logical ports 0..Ports-1 carry
// accelerator traffic over physical ports (primaries plus spares), every
// physical port a full cxl.Link with its own seeded fault model, all
// sharing the spine.
type Switch struct {
	cfg   SwitchConfig
	ports []*port
	// route maps logical port -> physical port; failover remaps it.
	route     []int
	sp, clean spine
	// cleanFed notes whether the clean spine has been fed (only ports
	// with fault models produce a meaningful fault-free drain).
	cleanFed bool
	// rng draws the failover backoff jitter. It is seeded from the fault
	// template on the first failover: most switches never fail over, and
	// seeding a math/rand source costs more than the rest of a one-port step.
	rng      *rand.Rand
	lastDone []sim.Time
	cleanAt  []sim.Time
	stats    SwitchStats
}

// NewSwitch builds a switch with Ports+SparePorts physical links.
func NewSwitch(cfg SwitchConfig) (*Switch, error) {
	if cfg.Ports < 1 {
		return nil, fmt.Errorf("fabric: switch needs >= 1 port, got %d", cfg.Ports)
	}
	if cfg.SparePorts < 0 {
		return nil, fmt.Errorf("fabric: negative spare ports %d", cfg.SparePorts)
	}
	if cfg.HostPorts < 0 {
		return nil, fmt.Errorf("fabric: negative host ports %d", cfg.HostPorts)
	}
	if cfg.HostPorts == 0 {
		cfg.HostPorts = cfg.Ports
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	sw := &Switch{
		cfg:      cfg,
		route:    make([]int, cfg.Ports),
		lastDone: make([]sim.Time, cfg.Ports),
		cleanAt:  make([]sim.Time, cfg.Ports),
	}
	phys := cfg.Ports + cfg.SparePorts
	for i := 0; i < phys; i++ {
		l := cxl.NewLink(nil, cfg.Bandwidth, cfg.QueueCap)
		if cfg.Faults.Enabled() {
			if _, err := l.InjectFaults(PortFaultConfig(cfg.Faults, i)); err != nil {
				return nil, err
			}
		}
		p := &port{link: l, up: true, bound: -1}
		if i < cfg.Ports {
			p.bound = i
			sw.route[i] = i
		}
		sw.ports = append(sw.ports, p)
	}
	bw := sw.ports[0].link.BytesPerSecond()
	sw.sp.bw = float64(cfg.HostPorts) * bw
	sw.clean.bw = sw.sp.bw
	return sw, nil
}

// PhysPorts returns the physical port count, spares included.
func (sw *Switch) PhysPorts() int { return len(sw.ports) }

// Link exposes physical port i's link (fault stats, recovery pricing).
func (sw *Switch) Link(i int) *cxl.Link { return sw.ports[i].link }

// KillPort takes down the physical port currently routing logical port
// lp's traffic. Subsequent sends on lp pay link-down detection and either
// fail over to a spare or error.
func (sw *Switch) KillPort(lp int) error {
	if lp < 0 || lp >= sw.cfg.Ports {
		return fmt.Errorf("fabric: kill of unknown port %d", lp)
	}
	p := sw.ports[sw.route[lp]]
	if !p.up {
		return nil
	}
	p.up = false
	sw.stats.PortsDown++
	telemetry.portsDown.Add(1)
	return nil
}

// DownPorts counts physical ports currently down.
func (sw *Switch) DownPorts() int {
	n := 0
	for _, p := range sw.ports {
		if !p.up {
			n++
		}
	}
	return n
}

// failover charges link-down detection and probes for a spare route with
// bounded, seeded-jitter exponential backoff. It returns the time at which
// a route was secured (rerouted=true) or the sender gave up.
func (sw *Switch) failover(lp int, now sim.Time) (sim.Time, bool) {
	now += DefaultLinkDownTimeout
	for attempt := 0; ; attempt++ {
		if alt := sw.spareFor(); alt >= 0 {
			sw.ports[alt].bound = lp
			sw.route[lp] = alt
			sw.stats.Failovers++
			telemetry.failovers.Add(1)
			return now, true
		}
		if attempt >= DefaultFailoverRetries {
			return now, false
		}
		sw.stats.FailoverRetries++
		telemetry.failoverRetries.Add(1)
		shift := attempt
		if shift > 16 {
			shift = 16
		}
		back := DefaultFailoverBackoff << uint(shift)
		if sw.rng == nil {
			sw.rng = rand.New(rand.NewSource(sw.cfg.Faults.Seed ^ 0x5DEECE66D))
		}
		back += sim.Time(sw.rng.Int63n(int64(back)/2 + 1))
		now += back + DefaultLinkDownTimeout
	}
}

// PortDownError reports a send that could not be delivered: the routed
// port is down and no spare port could take over within the failover
// budget. At carries the simulated time at which the sender gave up.
type PortDownError struct {
	Port int
	At   sim.Time
}

func (e *PortDownError) Error() string {
	return fmt.Sprintf("fabric: port %d down, failover exhausted", e.Port)
}

func (sw *Switch) spareFor() int {
	for i := sw.cfg.Ports; i < len(sw.ports); i++ {
		if p := sw.ports[i]; p.up && p.bound < 0 {
			return i
		}
	}
	return -1
}

// Send pushes one flow onto logical port lp's route and carries it across
// the spine. The returned FlowResult is the port link's result with Done
// (and CleanDone) advanced by the spine traversal; with one port, zero hop
// and no contention it is bit-identical to a bare cxl.Link.SendFlow.
func (sw *Switch) Send(lp int, ready sim.Time, n int, extra sim.Time, pktBytes int, aggregated bool) (cxl.FlowResult, error) {
	if lp < 0 || lp >= sw.cfg.Ports {
		return cxl.FlowResult{}, fmt.Errorf("fabric: send on unknown port %d", lp)
	}
	p := sw.ports[sw.route[lp]]
	if !p.up {
		at, rerouted := sw.failover(lp, ready)
		if !rerouted {
			sw.stats.FailedSends++
			return cxl.FlowResult{}, &PortDownError{Port: lp, At: at}
		}
		ready = at
		p = sw.ports[sw.route[lp]]
	}
	res := p.link.SendFlow(ready, n, extra, pktBytes, aggregated)
	res.Done = sw.sp.pass(res.Done, n, sw.cfg.HopLatency)
	if p.link.Faults() != nil {
		// The clean spine shadows the fault-free drain of the port so
		// Fence−FenceClean prices exactly the fault-exposed time, with
		// spine contention accounted once on each side.
		sw.cleanFed = true
		cleanOut := sw.clean.pass(p.link.FenceClean(0), n, sw.cfg.HopLatency)
		res.CleanDone = cleanOut
		if cleanOut > sw.cleanAt[lp] {
			sw.cleanAt[lp] = cleanOut
		}
	}
	p.bytes += int64(n)
	sw.stats.Flows++
	sw.stats.Bytes += int64(n)
	sw.stats.SpineBytes = sw.sp.bytes
	sw.stats.SpineQueued = sw.sp.queued
	if res.Done > sw.lastDone[lp] {
		sw.lastDone[lp] = res.Done
	}
	if check.Enabled() {
		check.Check(sw.CheckInvariants)
	}
	return res, nil
}

// FencePort is CXLFENCE over logical port lp's fabric path: the time all
// traffic sent on lp (port link and spine traversal) has completed, no
// earlier than ready.
func (sw *Switch) FencePort(lp int, ready sim.Time) sim.Time {
	if sw.lastDone[lp] > ready {
		return sw.lastDone[lp]
	}
	return ready
}

// FenceCleanPort is FencePort against the fault-free drain (see
// cxl.Link.FenceClean).
func (sw *Switch) FenceCleanPort(lp int, ready sim.Time) sim.Time {
	if sw.cleanAt[lp] > ready {
		return sw.cleanAt[lp]
	}
	return ready
}

// Stats returns the switch accounting so far.
func (sw *Switch) Stats() SwitchStats { return sw.stats }

// CheckInvariants verifies switch conservation: no flit lost or duplicated
// (every payload byte accepted on a port crossed the spine exactly once),
// per-port accounting adds up, and the fault-free drain never runs behind
// the faulted one.
func (sw *Switch) CheckInvariants() error {
	var portBytes int64
	for i, p := range sw.ports {
		if err := p.link.CheckInvariants(); err != nil {
			return fmt.Errorf("fabric: port %d: %w", i, err)
		}
		if p.bytes < 0 {
			return fmt.Errorf("fabric: port %d negative byte count %d", i, p.bytes)
		}
		portBytes += p.bytes
	}
	if sw.sp.bytes != portBytes {
		return fmt.Errorf("fabric: spine carried %d bytes, ports delivered %d (conservation)",
			sw.sp.bytes, portBytes)
	}
	if sw.sp.bytes != sw.stats.Bytes {
		return fmt.Errorf("fabric: spine bytes %d != accepted bytes %d", sw.sp.bytes, sw.stats.Bytes)
	}
	if sw.sp.queued < 0 || sw.clean.queued < 0 {
		return fmt.Errorf("fabric: negative spine queue time")
	}
	if sw.cleanFed && sw.clean.freeAt > sw.sp.freeAt {
		return fmt.Errorf("fabric: fault-free spine drain %v beyond drain %v",
			sw.clean.freeAt, sw.sp.freeAt)
	}
	down := int64(sw.DownPorts())
	if sw.stats.PortsDown < down {
		return fmt.Errorf("fabric: %d ports down but only %d kills recorded", down, sw.stats.PortsDown)
	}
	if sw.stats.Failovers < 0 || sw.stats.FailoverRetries < 0 || sw.stats.FailedSends < 0 {
		return fmt.Errorf("fabric: negative failover accounting %+v", sw.stats)
	}
	return nil
}
