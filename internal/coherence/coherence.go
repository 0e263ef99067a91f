// Package coherence implements the CXL.cache coherence machinery between the
// CPU cache and the accelerator's giant cache: the standard invalidation-based
// MESI protocol CXL ships with, and the paper's update-based extension
// (Figures 4 and 5 of the paper).
//
// The home agent is the single serialization point, exactly as in the CXL
// specification: every transition between the two peer caches flows through
// it. The package is link-agnostic — data movement is reported through a
// Transfer callback that the cxl package binds to its timed link model.
package coherence

import (
	"fmt"

	"teco/internal/cache"
	"teco/internal/conformance/check"
	"teco/internal/mem"
)

// Mode selects the coherence protocol.
type Mode int

const (
	// Invalidation is the stock CXL MESI behaviour: on a store, peers are
	// invalidated; data moves later, on demand, when the consumer misses.
	Invalidation Mode = iota
	// Update is the paper's extension: a Modified line is pushed to the
	// peer at update time (Go_Flush / FlushData), transitioning M->S
	// immediately (the red arrow in Fig 4).
	Update
)

// MsgType enumerates CXL.cache protocol messages the home agent exchanges.
type MsgType int

const (
	// MsgReadOwn: requester wants ownership to write (RFO).
	MsgReadOwn MsgType = iota
	// MsgReadShared: requester wants a readable copy.
	MsgReadShared
	// MsgInvalidate: home agent invalidates a peer copy.
	MsgInvalidate
	// MsgGoFlush: home agent approves an immediate flush of updated data
	// (the paper's new message enabling the M->S transition).
	MsgGoFlush
	// MsgFlushData: the updated cache line (or its DBA-aggregated payload)
	// pushed to the peer.
	MsgFlushData
	// MsgData: on-demand data response to a read miss.
	MsgData
	numMsgTypes
)

var msgNames = [...]string{"ReadOwn", "ReadShared", "Invalidate", "Go_Flush", "FlushData", "Data"}

// Side identifies a peer cache in the coherent domain.
type Side int

const (
	// CPU is the host-side cache hierarchy.
	CPU Side = iota
	// Accelerator is the giant cache carved out of device memory.
	Accelerator
)

// Opposite returns the other peer.
func (s Side) Opposite() Side {
	if s == CPU {
		return Accelerator
	}
	return CPU
}

// Transfer describes a data movement crossing the CXL link.
type Transfer struct {
	Line mem.LineAddr
	From Side
	To   Side
	Msg  MsgType
	// OnDemand marks transfers that sit on a consumer's critical path
	// (invalidation-protocol read-miss fills), as opposed to pushed
	// updates that overlap with producer compute.
	OnDemand bool
}

// TransferFunc receives each link crossing.
type TransferFunc func(Transfer)

// Domain is the coherent domain: the two peer caches plus the home agent
// state. Per the paper (§IV-A2), in update mode with a clear
// producer/consumer relationship no snoop filter is needed; in invalidation
// mode the home agent maintains one.
type Domain struct {
	mode    Mode
	addrMap *mem.Map
	cpu     *cache.Cache
	giant   *cache.Cache
	sink    TransferFunc

	// snoop is the sharer-tracking directory used only in invalidation
	// mode (the paper's fallback for workloads without a clear
	// producer/consumer pattern): bit 0 when the CPU has a copy, bit 1
	// when the accelerator does.
	snoop mem.LineTable[uint8]

	msgs      [numMsgTypes]int64
	transfers int64
	onDemand  int64

	// Link-fault recovery accounting: retransmitted update pushes (NAKed
	// by the link layer and replayed), pushes poisoned after retry-budget
	// exhaustion, and poisoned lines later recovered through the
	// on-demand fetch path.
	retransmits     int64
	poisons         int64
	poisonRecovered int64
	// poisonedLines marks lines whose last push was poisoned, so their
	// eventual on-demand recovery can be attributed.
	poisonedLines mem.LineTable[bool]
}

// Config configures a Domain.
type Config struct {
	Mode Mode
	// AddrMap distinguishes giant-cache lines from plain host memory.
	AddrMap *mem.Map
	// OnTransfer observes link crossings; may be nil.
	OnTransfer TransferFunc
}

// NewDomain builds the coherent domain.
func NewDomain(cfg Config) *Domain {
	if cfg.AddrMap == nil {
		panic("coherence: nil address map")
	}
	// The host LLC is gem5's Table II L3. The giant cache is fully
	// associative and sized to the address map's giant-cache region: the
	// paper configures it to suffer no capacity misses.
	bytes := cfg.AddrMap.GiantCacheBytes()
	if bytes == 0 {
		bytes = 64 << 20
	}
	sink := cfg.OnTransfer
	if sink == nil {
		sink = func(Transfer) {}
	}
	return &Domain{
		mode:    cfg.Mode,
		addrMap: cfg.AddrMap,
		cpu:     cache.New(cache.Gem5L3()),
		giant:   cache.New(cache.Config{Name: "giant", SizeBytes: bytes, Ways: 0}),
		sink:    sink,
	}
}

func (d *Domain) say(t MsgType) { d.msgs[t]++ }

// checkLine asserts the per-line legality rules after a protocol operation
// touched line l, plus the domain-wide message/transfer conservation laws.
// Called from Write/Read only while conformance checking is enabled.
func (d *Domain) checkLine(l mem.LineAddr) {
	check.Check(
		func() error { return d.CheckInvariants([]mem.LineAddr{l}) },
		func() error {
			if d.onDemand < 0 || d.onDemand > d.transfers {
				return fmt.Errorf("coherence: %d on-demand of %d transfers", d.onDemand, d.transfers)
			}
			// Every data transfer is either an update push or an (on-demand
			// or writeback) MESI data response.
			if data := d.msgs[MsgFlushData] + d.msgs[MsgData]; data != d.transfers {
				return fmt.Errorf("coherence: %d data messages vs %d transfers", data, d.transfers)
			}
			return nil
		},
		func() error {
			if d.poisonRecovered > d.poisons {
				return fmt.Errorf("coherence: recovered %d of %d poisoned pushes", d.poisonRecovered, d.poisons)
			}
			if int64(d.poisonedLines.Len()) > d.poisons-d.poisonRecovered {
				return fmt.Errorf("coherence: %d poisoned lines outstanding, %d unrecovered pushes",
					d.poisonedLines.Len(), d.poisons-d.poisonRecovered)
			}
			return nil
		},
		func() error {
			if d.mode == Update && d.snoop.Len() != 0 {
				return fmt.Errorf("coherence: update mode tracks %d snoop entries", d.snoop.Len())
			}
			return nil
		},
	)
}

func (d *Domain) move(tr Transfer) {
	d.transfers++
	if tr.OnDemand {
		d.onDemand++
	}
	d.say(tr.Msg)
	d.sink(tr)
}

func (d *Domain) cacheOf(s Side) *cache.Cache {
	if s == CPU {
		return d.cpu
	}
	return d.giant
}

// sharer is side s's bit in a snoop entry.
func sharer(s Side) uint8 { return 1 << uint(s) }

// SnoopEntries returns the number of directory entries currently tracked —
// zero in update mode, which is the paper's snoop-filter-free claim.
func (d *Domain) SnoopEntries() int { return d.snoop.Len() }

// NoteRetransmit records n link-layer retransmissions of update pushes.
// The replay engine delivers the data, so no protocol state changes — this
// is recovery accounting only.
func (d *Domain) NoteRetransmit(n int64) { d.retransmits += n }

// PoisonPush handles a FlushData push whose link-layer retry budget was
// exhausted: the payload arrived poisoned and must not be consumed. The
// home agent contains the error by dropping the peer's (poisoned) copy and
// reverting the writer's line to Modified — so the consumer's next Read
// takes the on-demand invalidation-style fetch path and pulls a clean copy
// from the still-dirty writer. Only meaningful in update mode (the
// invalidation protocol has no pushes to poison).
func (d *Domain) PoisonPush(l mem.LineAddr, from Side) {
	d.poisons++
	writer := d.cacheOf(from)
	peer := d.cacheOf(from.Opposite())
	if writer.Lookup(l) == cache.Shared {
		writer.SetState(l, cache.Modified)
	}
	if peer.Contains(l) {
		peer.SetState(l, cache.Invalid)
	}
	d.poisonedLines.Set(l, true)
}

// FaultCounters returns (retransmitted pushes, poisoned pushes, poisoned
// lines recovered via the on-demand fetch path).
func (d *Domain) FaultCounters() (retransmits, poisons, recovered int64) {
	return d.retransmits, d.poisons, d.poisonRecovered
}

// Seed installs the initial resident copy of a line on side s in Exclusive
// state without link traffic (e.g. parameters pre-loaded into the giant
// cache before training starts, as in Fig 5's initial condition G_S = E).
func (d *Domain) Seed(l mem.LineAddr, s Side) {
	d.cacheOf(s).Insert(l, cache.Exclusive)
	if d.mode == Invalidation {
		d.snoop.Set(l, d.snoop.Get(l)|sharer(s))
	}
}

// handleEviction routes a capacity eviction from side s's cache through the
// protocol: clean giant-cache lines restore the peer copy to Exclusive
// (Fig 5's eviction rule); dirty giant-cache lines in invalidation mode must
// cross the link to their accelerator-memory home. It returns true when the
// eviction is fully absorbed, false when the caller owns it (a host-DRAM
// writeback).
func (d *Domain) handleEviction(ev cache.Eviction, s Side) bool {
	if !d.addrMap.InGiantCache(ev.Addr) {
		return !ev.Dirty // clean host lines vanish silently
	}
	if d.mode == Invalidation {
		d.snoop.Set(ev.Addr, d.snoop.Get(ev.Addr)&^sharer(s))
	}
	peer := d.cacheOf(s.Opposite())
	if peer.Lookup(ev.Addr) == cache.Shared {
		peer.SetState(ev.Addr, cache.Exclusive)
	}
	if ev.Dirty && s == CPU && !peer.Contains(ev.Addr) {
		// Invalidation-mode dirty writeback to the accelerator home.
		d.move(Transfer{Line: ev.Addr, From: CPU, To: Accelerator, Msg: MsgData})
	}
	return true
}

// Write performs a store by side `from` to line l and returns the evictions
// the insertion caused in the writer's cache that the caller must write back
// to host DRAM (giant-cache-domain evictions are absorbed by the protocol).
//
// Update mode follows Fig 5 exactly for giant-cache lines:
//
//	writer I -> E (ReadOwn), store E -> M, Go_Flush approval, FlushData
//	pushed to the peer, writer M -> S, peer copy updated in S.
//
// Invalidation mode is stock MESI: peer invalidated, writer holds M, data
// moves later on demand.
func (d *Domain) Write(l mem.LineAddr, from Side) []cache.Eviction {
	writer := d.cacheOf(from)
	peer := d.cacheOf(from.Opposite())
	inDomain := d.addrMap.InGiantCache(l)

	var evs []cache.Eviction
	st := writer.Lookup(l)
	if !st.Valid() {
		// Fig 5 step 1: acquire ownership.
		d.say(MsgReadOwn)
		if ev, evicted := writer.Insert(l, cache.Exclusive); evicted {
			if !d.handleEviction(ev, from) {
				evs = append(evs, ev)
			}
		}
		if d.mode == Invalidation {
			d.snoop.Set(l, d.snoop.Get(l)|sharer(from))
		}
	}

	if !inDomain || d.mode == Invalidation {
		// Plain MESI: invalidate the peer copy, hold Modified.
		if peer.Contains(l) {
			d.say(MsgInvalidate)
			peer.SetState(l, cache.Invalid)
			if d.mode == Invalidation {
				d.snoop.Set(l, d.snoop.Get(l)&^sharer(from.Opposite()))
			}
		}
		writer.SetState(l, cache.Modified)
		if check.Enabled() {
			d.checkLine(l)
		}
		return evs
	}

	// Update protocol, Fig 5 steps 2-3: M, then Go_Flush -> push -> S.
	writer.SetState(l, cache.Modified)
	d.say(MsgGoFlush)
	d.move(Transfer{Line: l, From: from, To: from.Opposite(), Msg: MsgFlushData})
	writer.SetState(l, cache.Shared)
	// A fresh push supersedes any earlier poisoned delivery of this line
	// (the caller re-poisons via PoisonPush if this one failed too).
	d.poisonedLines.Set(l, false)
	// Peer copy is refreshed and shared. The giant cache always accepts;
	// a smaller CPU cache "simply ignores the update messages" for lines
	// it does not hold (paper §IV-A2) — the payload still lands in host
	// memory via the home agent.
	if from == CPU || peer.Contains(l) {
		if ev, evicted := peer.Insert(l, cache.Shared); evicted {
			// Giant cache is sized for zero capacity misses; a capacity
			// eviction here (or in the CPU peer cache) is routed through
			// the protocol like any other.
			if !d.handleEviction(ev, from.Opposite()) {
				evs = append(evs, ev)
			}
		}
	}
	if check.Enabled() {
		d.checkLine(l)
	}
	return evs
}

// Read performs a load by side `from`. In invalidation mode a miss whose
// peer holds the dirty line triggers the on-demand transfer the paper
// identifies as the critical-path cost of stock CXL (§IV-A2). It returns
// true when the read required an on-demand link crossing.
func (d *Domain) Read(l mem.LineAddr, from Side) bool {
	reader := d.cacheOf(from)
	peer := d.cacheOf(from.Opposite())

	if reader.Contains(l) {
		reader.Touch(l)
		return false
	}

	if peer.Lookup(l) == cache.Modified {
		// On-demand fill from the dirty peer copy. This is also the
		// recovery path for poisoned pushes: the writer still holds M,
		// so the fetch delivers a clean copy.
		if d.poisonedLines.Get(l) {
			d.poisonedLines.Set(l, false)
			d.poisonRecovered++
		}
		d.say(MsgReadShared)
		d.move(Transfer{Line: l, From: from.Opposite(), To: from, Msg: MsgData, OnDemand: true})
		peer.SetState(l, cache.Shared)
		if ev, evicted := reader.Insert(l, cache.Shared); evicted {
			d.handleEviction(ev, from)
		}
		if d.mode == Invalidation {
			d.snoop.Set(l, d.snoop.Get(l)|sharer(from))
		}
		if check.Enabled() {
			d.checkLine(l)
		}
		return true
	}

	// Clean fill from memory (no CXL critical-path cost modelled for the
	// local memory side).
	st := cache.Exclusive
	if ps := peer.Lookup(l); ps.Valid() {
		st = cache.Shared
		if ps == cache.Exclusive {
			peer.SetState(l, cache.Shared)
		}
	}
	if ev, evicted := reader.Insert(l, st); evicted {
		d.handleEviction(ev, from)
	}
	if d.mode == Invalidation {
		d.snoop.Set(l, d.snoop.Get(l)|sharer(from))
	}
	if check.Enabled() {
		d.checkLine(l)
	}
	return false
}

// FlushCPU flushes the whole CPU cache — the once-per-iteration flush that
// guarantees all updated parameters were pushed out (paper §IV-A2). Dirty
// non-domain lines are returned for the caller's host-memory writeback
// accounting; domain lines were already pushed by the update protocol and
// transition the peer back to Exclusive.
func (d *Domain) FlushCPU() []cache.Eviction {
	evs := d.cpu.FlushAll()
	var hostWB []cache.Eviction
	for _, ev := range evs {
		if d.addrMap.InGiantCache(ev.Addr) {
			if d.giant.Lookup(ev.Addr) == cache.Shared {
				d.giant.SetState(ev.Addr, cache.Exclusive)
			}
			if d.mode == Update {
				if ev.Dirty {
					// Under the update protocol a dirty giant-domain line
					// at flush time means its push was poisoned (clean
					// pushes leave the writer Shared). Keep ownership so
					// the consumer's on-demand fetch can still recover
					// the only good copy.
					d.cpu.Insert(ev.Addr, cache.Modified)
				}
				continue
			}
			if !ev.Dirty {
				continue
			}
			// Invalidation mode: the dirty line's home is accelerator
			// memory, so the writeback must cross the link now.
			d.move(Transfer{Line: ev.Addr, From: CPU, To: Accelerator, Msg: MsgData})
			continue
		}
		if ev.Dirty {
			hostWB = append(hostWB, ev)
		}
	}
	if d.mode == Invalidation {
		d.snoop.Update(func(_ mem.LineAddr, bits uint8) uint8 { return bits &^ sharer(CPU) })
	}
	return hostWB
}

// CheckInvariants validates protocol safety properties and returns an error
// describing the first violation, if any:
//
//  1. single-writer: a line Modified on one side is not valid on the other;
//  2. Exclusive means exclusive: an Exclusive line is Invalid on the peer;
//  3. update-mode giant-cache lines are never dirty-shared.
func (d *Domain) CheckInvariants(lines []mem.LineAddr) error {
	for _, l := range lines {
		cs := d.cpu.Lookup(l)
		gs := d.giant.Lookup(l)
		if cs == cache.Modified && gs.Valid() {
			return fmt.Errorf("line %d: CPU=M but accelerator=%v", l, gs)
		}
		if gs == cache.Modified && cs.Valid() {
			return fmt.Errorf("line %d: accelerator=M but CPU=%v", l, cs)
		}
		if cs == cache.Exclusive && gs.Valid() {
			return fmt.Errorf("line %d: CPU=E but accelerator=%v", l, gs)
		}
		if gs == cache.Exclusive && cs.Valid() {
			return fmt.Errorf("line %d: accelerator=E but CPU=%v", l, cs)
		}
	}
	return nil
}
