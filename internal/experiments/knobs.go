package experiments

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strconv"
	"strings"

	"teco/internal/cxl"
)

// Options parameterizes experiment generation. The zero value of every
// field reproduces the paper's evaluation on the default grids; each field
// except Ctx is declared exactly once in the knobs table below, which is
// where its wire name, help text, bounds and cache-key membership live.
type Options struct {
	// Seed drives the randomized experiments (real training, fault draws).
	Seed int64
	// BER centres the fault sweep on one bit-error rate; RetryBudget
	// overrides the link-layer retransmit budget; Degrade enables the
	// graceful DBA → full-line degradation policy.
	BER         float64
	RetryBudget int
	Degrade     bool
	// CkptInterval collapses the recovery sweep's interval axis; CrashAt
	// additionally kills every run at that step and restores it from disk
	// (core.CrashRun); CkptDir roots the sweep's temporary checkpoint
	// directories (empty: the system temp directory).
	CkptInterval int
	CrashAt      int
	CkptDir      string
	// Replicas and HostPorts collapse the fabric sweep's data-parallel
	// width and spine-uplink axes; KillPort (1-based) and KillStep select
	// the fabric chaos target.
	Replicas, HostPorts, KillPort, KillStep int
	// Layers, CachePct and PrefetchDepth collapse the layers sweep's axes
	// (and override the policy sweep's shape); LayerPolicy collapses the
	// policy sweep's eviction-policy axis; LayerSeqLen is its long-context
	// sequence length.
	Layers, CachePct, PrefetchDepth int
	LayerPolicy                     string
	LayerSeqLen                     int
	// TierPolicy, TierDRAMPct and TierMigrateBudget (MiB per step)
	// collapse the tiering sweeps' policy, fast-tier-size and
	// migration-budget axes.
	TierPolicy                     string
	TierDRAMPct, TierMigrateBudget int
	// Workers sizes the sweep worker pool and rides into the trainers'
	// intra-step hot loops (<= 0: GOMAXPROCS, 1: serial). NoMemo disables
	// the shared-run memoization (runcache.go). PerLine runs every timing
	// engine on the per-line reference path instead of the flow-coalescing
	// fast path. All three are pure scheduling: every table is identical
	// at every setting (parallel_test.go, coalesce_test.go).
	Workers int
	NoMemo  bool
	PerLine bool
	// Ctx, when non-nil, bounds the whole generation: the sweep pool stops
	// dispatching grid points and returns as soon as it is cancelled (the
	// sweep service threads per-request deadlines through here). A
	// cancelled generation yields tables with zero-value cells for the
	// unreached points — callers that observe Ctx.Err() != nil after
	// generating must discard the result.
	Ctx context.Context
}

// context returns the generation-bounding context (Background when unset).
func (opt Options) context() context.Context {
	if opt.Ctx != nil {
		return opt.Ctx
	}
	return context.Background()
}

// knob declares one settable field of Options. Flags (RegisterFlags),
// request decoding (Set), range checks (Validate) and the cache key
// (Fingerprint) are all derived from the knobs table; nothing else in the
// tree names a knob.
type knob struct {
	// name is the wire name (query parameter / JSON field); the tecosim
	// flag is the same with '_' replaced by '-'.
	name, usage string
	// lo..hi are the inclusive bounds of a numeric knob.
	lo, hi float64
	// enum lists the non-empty values a string knob accepts (nil: free).
	enum []string
	// sched marks pure scheduling knobs: flag-only, never accepted in a
	// request and never in a key, because no output byte depends on them.
	sched bool
	// ref addresses the knob's field: *int, *int64, *float64, *bool,
	// *string, or a flag.Value wrapping one.
	ref func(*Options) any
}

// Request ceilings: generous constants (each at least 10x the largest value
// any default grid, golden, test or benchmark schedule uses) that keep one
// hostile request from pinning a compute slot until its deadline.
const (
	maxLayers   = 1 << 10
	maxPrefetch = 1 << 6
	maxPorts    = 1 << 10
	maxRetries  = 1 << 10
	maxSteps    = 1 << 20
	maxSeqLen   = 1 << 20
	maxMiB      = 1 << 20
)

var inf = math.Inf(1)

// knobs is the one declaration of every knob, in cache-key order. A new
// knob may go anywhere — while it is at its zero default it is not hashed —
// but reordering or renaming existing rows moves stored keys (the format
// museum in internal/server/testdata fails when that happens).
var knobs = []knob{
	{name: "seed", usage: "random seed for the real-training experiments and fault draws", lo: -inf, hi: inf, ref: func(o *Options) any { return &o.Seed }},
	{name: "ber", usage: "link bit-error rate for the fault sweep (0: default grid)", hi: 1, ref: func(o *Options) any { return &o.BER }},
	{name: "retry_budget", usage: "link-layer retransmit budget before poisoning (0: default 8)", hi: maxRetries, ref: func(o *Options) any { return &o.RetryBudget }},
	{name: "degrade", usage: "enable graceful degradation from DBA to full-line transfers under faults", ref: func(o *Options) any { return &o.Degrade }},
	{name: "ckpt_interval", usage: "checkpoint interval in steps for the recovery sweep (0: default grid)", hi: maxSteps, ref: func(o *Options) any { return &o.CkptInterval }},
	{name: "ckpt_dir", usage: "root directory for recovery-sweep checkpoints (default: system temp)", sched: true, ref: func(o *Options) any { return &o.CkptDir }},
	{name: "crash_at", usage: "kill and restore each recovery-sweep run at this step (0: no crash)", hi: maxSteps, ref: func(o *Options) any { return &o.CrashAt }},
	{name: "replicas", usage: "data-parallel width for the fabric sweep (0: default grid)", hi: maxPorts, ref: func(o *Options) any { return &o.Replicas }},
	{name: "host_ports", usage: "fabric spine uplink count (0: oversubscription grid)", hi: maxPorts, ref: func(o *Options) any { return &o.HostPorts }},
	{name: "kill_port", usage: "1-based fabric port to kill in the fault sweep (0: default)", hi: maxPorts, ref: func(o *Options) any { return &o.KillPort }},
	{name: "kill_step", usage: "fine-tuning step at which the fabric chaos kill fires (0: default)", hi: maxSteps, ref: func(o *Options) any { return &o.KillStep }},
	{name: "layers", usage: "layer count for the layers sweeps (0: default grid)", hi: maxLayers, ref: func(o *Options) any { return &o.Layers }},
	{name: "cache_pct", usage: "fast-tier size for the layers sweeps, percent of model parameter bytes (0: defaults)", hi: 100, ref: func(o *Options) any { return &o.CachePct }},
	{name: "prefetch", usage: "prefetch look-ahead depth in layers for the layers sweeps (0: defaults)", hi: maxPrefetch, ref: func(o *Options) any { return &o.PrefetchDepth }},
	{name: "layer_policy", usage: "eviction policy for the layers-policy sweep: lru, fifo, pin (empty: full set)", enum: []string{"lru", "fifo", "pin", "pinned"}, ref: func(o *Options) any { return &o.LayerPolicy }},
	{name: "layer_seq_len", usage: "long-context sequence length for the layers-policy sweep (0: default 1024)", hi: maxSeqLen, ref: func(o *Options) any { return &o.LayerSeqLen }},
	{name: "tier_policy", usage: "placement policy for the tiering sweeps: heat, lru, static (empty: defaults)", enum: []string{"heat", "lru", "recency", "static"}, ref: func(o *Options) any { return &o.TierPolicy }},
	{name: "tier_dram_pct", usage: "fast-tier size for the tiering sweeps, percent of tiered slot bytes (0: defaults)", hi: 100, ref: func(o *Options) any { return &o.TierDRAMPct }},
	{name: "tier_migrate_budget", usage: "per-step migration budget in MiB for the tiering sweeps (0: defaults)", hi: maxMiB, ref: func(o *Options) any { return &o.TierMigrateBudget }},
	{name: "workers", usage: "sweep worker pool size (0: GOMAXPROCS, 1: serial); tables are identical at every setting", lo: -inf, hi: inf, sched: true, ref: func(o *Options) any { return &o.Workers }},
	{name: "no_memo", usage: "disable shared-run memoization across experiments (slower, identical output)", sched: true, ref: func(o *Options) any { return &o.NoMemo }},
	{name: "coalesce", usage: "flow-coalescing fast path for the stream simulator; false runs the bit-identical per-line reference path (slow)", sched: true, ref: func(o *Options) any { return notFlag{&o.PerLine} }},
}

// notFlag presents a bool field under the opposite polarity: -coalesce
// (default true) is Options.PerLine (default false).
type notFlag struct{ p *bool }

func (f notFlag) IsBoolFlag() bool { return true }

func (f notFlag) String() string {
	if f.p == nil {
		return ""
	}
	return strconv.FormatBool(!*f.p)
}

func (f notFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	if err == nil {
		*f.p = !v
	}
	return err
}

// RegisterFlags registers one flag per knob on fs, bound to the fields of
// o; each flag's default is the field's value at the time of the call.
func RegisterFlags(fs *flag.FlagSet, o *Options) {
	for _, k := range knobs {
		name := strings.ReplaceAll(k.name, "_", "-")
		switch p := k.ref(o).(type) {
		case *int:
			fs.IntVar(p, name, *p, k.usage)
		case *int64:
			fs.Int64Var(p, name, *p, k.usage)
		case *float64:
			fs.Float64Var(p, name, *p, k.usage)
		case *bool:
			fs.BoolVar(p, name, *p, k.usage)
		case *string:
			fs.StringVar(p, name, *p, k.usage)
		case flag.Value:
			fs.Var(p, name, k.usage)
		}
	}
}

// Set parses value into the request knob with the given wire name — the
// one decoding path for tecosimd's query strings and JSON bodies. Unknown
// names and scheduling knobs are errors; an empty value leaves the knob at
// its default. Ranges are Validate's job.
func (o *Options) Set(name, value string) error {
	for i := range knobs {
		k := &knobs[i]
		if k.name != name || k.sched {
			continue
		}
		if value == "" {
			return nil
		}
		var err error
		switch p := k.ref(o).(type) {
		case *int:
			*p, err = strconv.Atoi(value)
		case *int64:
			*p, err = strconv.ParseInt(value, 10, 64)
		case *float64:
			*p, err = strconv.ParseFloat(value, 64)
		case *bool:
			*p, err = strconv.ParseBool(value)
		case *string:
			*p = value
		}
		if err != nil {
			return fmt.Errorf("experiments: bad %s value %q", name, value)
		}
		return nil
	}
	return fmt.Errorf("experiments: unknown knob %q", name)
}

// Validate rejects option sets the simulators cannot model or that exceed
// the table's bounds. ByID runs it for every id and the sweep service runs
// it before admission, whether or not the chosen experiment reads the
// offending knob.
func (o Options) Validate() error {
	for i := range knobs {
		k := &knobs[i]
		var v float64
		switch p := k.ref(&o).(type) {
		case *int:
			v = float64(*p)
		case *int64:
			v = float64(*p)
		case *float64:
			v = *p
		case *string:
			if k.enum != nil && *p != "" && !slices.Contains(k.enum, *p) {
				return fmt.Errorf("experiments: %s %q is not one of %v", k.name, *p, k.enum)
			}
		}
		if !(v >= k.lo && v <= k.hi) { // also rejects NaN
			return fmt.Errorf("experiments: %s %s outside %s..%s", k.name, num(v), num(k.lo), num(k.hi))
		}
	}
	if w := fabricFaultWidth(o); o.KillPort > w {
		return fmt.Errorf("experiments: kill_port %d outside 1..%d replicas", o.KillPort, w)
	}
	return cxl.FaultConfig{Seed: o.Seed, BER: o.BER, RetryBudget: o.RetryBudget}.Validate()
}

// num formats a bound without an exponent (1048576, not 1.048576e+06).
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// Fingerprint returns the canonical 64-bit identity of "experiment id run
// under these options" — the cache and request-coalescing key of the sweep
// service: FNV-64a over the canonical id followed by "|name=value" for each
// non-scheduling knob that is not at its zero default, in table order. So
// an omitted knob and an explicit zero share a key, requests that differ
// only in scheduling share one cache entry and one in-flight computation,
// and adding a knob to the table never moves an existing key. Every set
// result knob is hashed whether or not the experiment reads it.
func (o Options) Fingerprint(id string) uint64 {
	if c, ok := Canonical(id); ok {
		id = c
	}
	return fingerprint(knobs, id, &o)
}

func fingerprint(table []knob, id string, o *Options) uint64 {
	var buf [192]byte
	b := append(buf[:0], id...)
	for i := range table {
		k := &table[i]
		if k.sched {
			continue
		}
		mark := len(b)
		b = append(append(append(b, '|'), k.name...), '=')
		set := false
		switch p := k.ref(o).(type) {
		case *int:
			b, set = strconv.AppendInt(b, int64(*p), 10), *p != 0
		case *int64:
			b, set = strconv.AppendInt(b, *p, 10), *p != 0
		case *float64:
			b, set = strconv.AppendFloat(b, *p, 'g', -1, 64), *p != 0
		case *bool:
			b, set = strconv.AppendBool(b, *p), *p
		case *string:
			b, set = append(b, *p...), *p != ""
		}
		if !set {
			b = b[:mark]
		}
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
