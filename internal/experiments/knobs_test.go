package experiments

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"teco/internal/staging"
	"teco/internal/tiering"
)

var updateDocs = flag.Bool("update", false, "rewrite the generated knob table in DESIGN.md")

// TestKnobTableCoversOptions: every field of Options except Ctx is declared
// by exactly one knob, wire names are unique, and each knob's flag is its
// wire name with '_' → '-'.
func TestKnobTableCoversOptions(t *testing.T) {
	var o Options
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	RegisterFlags(fs, &o)
	names := map[string]bool{}
	for i := range knobs {
		k := &knobs[i]
		if names[k.name] {
			t.Errorf("wire name %q declared twice", k.name)
		}
		names[k.name] = true
		if fs.Lookup(strings.ReplaceAll(k.name, "_", "-")) == nil {
			t.Errorf("knob %q has no flag", k.name)
		}
	}
	v := reflect.ValueOf(&o).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		n := 0
		for j := range knobs {
			if knobs[j].ref(&o) == v.Field(i).Addr().Interface() {
				n++
			}
		}
		if want := map[bool]int{true: 0, false: 1}[name == "Ctx"]; n != want {
			t.Errorf("Options.%s is declared by %d knobs, want %d", name, n, want)
		}
	}
}

// TestSetDecodesEveryKind: Set parses each kind, treats an empty value as
// omitted, and refuses unknown names, scheduling knobs and garbage.
func TestSetDecodesEveryKind(t *testing.T) {
	var o Options
	for name, value := range map[string]string{
		"seed": "-7", "ber": "1e-6", "retry_budget": "4", "degrade": "true",
		"layer_policy": "fifo", "cache_pct": "",
	} {
		if err := o.Set(name, value); err != nil {
			t.Fatalf("Set(%s, %q): %v", name, value, err)
		}
	}
	if want := (Options{Seed: -7, BER: 1e-6, RetryBudget: 4, Degrade: true, LayerPolicy: "fifo"}); o != want {
		t.Fatalf("Set produced %+v, want %+v", o, want)
	}
	for name, value := range map[string]string{
		"sede": "7", "workers": "9", "no_memo": "true", "ckpt_dir": "/tmp",
		"seed": "abc", "layers": "1.5", "ber": "x", "degrade": "maybe",
	} {
		if err := o.Set(name, value); err == nil {
			t.Errorf("Set(%s, %q) accepted", name, value)
		}
	}
}

// TestValidateBounds: every bounded knob passes at its bounds and fails one
// past them; the enum lists agree with the packages that parse them; the
// cross-field rules still hold.
func TestValidateBounds(t *testing.T) {
	for i := range knobs {
		k := &knobs[i]
		for _, c := range []struct {
			v  float64
			ok bool
		}{{k.lo, true}, {k.hi, true}, {k.lo - 1, false}, {k.hi + 1, false}} {
			o := Options{Replicas: maxPorts} // so kill_port's own bound is the one tested
			switch p := k.ref(&o).(type) {
			case *int:
				if math.IsInf(c.v, 0) {
					continue
				}
				*p = int(c.v)
			case *float64:
				*p = c.v
			default:
				continue
			}
			if k.name == "ber" && c.v == 1 {
				c.ok = false // [0,1): the link model's own rule
			}
			if err := o.Validate(); (err == nil) != c.ok {
				t.Errorf("%s=%v: Validate() = %v, want ok=%v", k.name, c.v, err, c.ok)
			}
		}
		for _, v := range k.enum {
			o := Options{}
			*k.ref(&o).(*string) = v
			if err := o.Validate(); err != nil {
				t.Errorf("%s=%q: %v", k.name, v, err)
			}
			var perr error
			switch k.name {
			case "layer_policy":
				_, perr = staging.ParsePolicy(v)
			case "tier_policy":
				_, perr = tiering.ParsePolicy(v)
			default:
				t.Fatalf("enum knob %s has no parser to agree with", k.name)
			}
			if perr != nil {
				t.Errorf("%s=%q is in the table but its package rejects it: %v", k.name, v, perr)
			}
		}
	}
	for _, bad := range []Options{
		{LayerPolicy: "mru"}, {LayerPolicy: "pinned"}, {TierPolicy: "coldest"}, {TierPolicy: "recency"},
		{BER: math.NaN()}, {KillPort: 5}, {Replicas: 2, KillPort: 3},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
	if err := (Options{Replicas: 8, KillPort: 8, Seed: math.MinInt64, Workers: -1}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPolicyEnumValuesSelectRows: every policy spelling Validate accepts
// selects at least one row of the sweep it collapses — a spelling the sweep
// does not know would render a header and no rows.
func TestPolicyEnumValuesSelectRows(t *testing.T) {
	sweeps := map[string]func(Options) *Table{"layer_policy": LayersPolicySweep, "tier_policy": TieringPolicySweep}
	for i := range knobs {
		k := &knobs[i]
		if k.enum == nil {
			continue
		}
		for _, v := range k.enum {
			o := Options{Workers: 1}
			*k.ref(&o).(*string) = v
			if err := o.Validate(); err != nil {
				t.Fatalf("%s=%q: %v", k.name, v, err)
			}
			if rows := len(sweeps[k.name](o).Rows); rows == 0 {
				t.Errorf("%s=%q: the sweep rendered no rows", k.name, v)
			}
		}
	}
}

// TestFingerprintFormat pins the key's definition — the canonical string
// under FNV-64a — and the upgrade rule: a knob added anywhere in the table
// and left at its default moves no key; set, it moves every key.
func TestFingerprintFormat(t *testing.T) {
	if got, want := (Options{}).Fingerprint("table1"), fnv64a("table1"); got != want {
		t.Fatalf("zero options: %016x, want %016x", got, want)
	}
	o := Options{Seed: 42, BER: 1e-6, Degrade: true, TierPolicy: "lru", Layers: 12,
		Workers: 8, NoMemo: true, CkptDir: "/tmp/x"}
	canon := "fig11|seed=42|ber=1e-06|degrade=true|layers=12|tier_policy=lru"
	if got, want := o.Fingerprint("table4"), fnv64a(canon); got != want {
		t.Fatalf("fingerprint %016x, want FNV-64a(%q) = %016x", got, canon, want)
	}
	var extra int
	synthetic := knob{name: "synthetic", hi: 9, ref: func(*Options) any { return &extra }}
	cases := []Options{{}, o, {Seed: 7, Replicas: 2, HostPorts: 1, KillPort: 2, TierMigrateBudget: 64}}
	for at := 0; at <= len(knobs); at += len(knobs) / 2 {
		grown := append(append(append([]knob{}, knobs[:at]...), synthetic), knobs[at:]...)
		for _, c := range cases {
			extra = 0
			if got, want := fingerprint(grown, "faults", &c), c.Fingerprint("faults"); got != want {
				t.Errorf("a defaulted knob inserted at %d moved the key of %+v: %016x != %016x", at, c, got, want)
			}
			extra = 3
			if fingerprint(grown, "faults", &c) == c.Fingerprint("faults") {
				t.Errorf("a set knob inserted at %d left the key of %+v unchanged", at, c)
			}
		}
	}
}

func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// TestRegistry: ids are unique across ids and aliases, aliases resolve,
// and "all" is exactly the inAll rows in order.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{allID: true}
	for _, e := range registry {
		for _, id := range append([]string{e.id}, e.aliases...) {
			if seen[id] {
				t.Errorf("id %q registered twice", id)
			}
			seen[id] = true
			if c, ok := Canonical(id); !ok || c != e.id {
				t.Errorf("Canonical(%q) = %q, %v; want %q", id, c, ok, e.id)
			}
		}
	}
	if _, ok := Canonical("nope"); ok {
		t.Error("Canonical accepted an unknown id")
	}
	for alias, id := range map[string]string{"table4": "fig11", "fig2a": "fig2", "fig2b": "fig2"} {
		if (Options{Seed: 1}).Fingerprint(alias) != (Options{Seed: 1}).Fingerprint(id) {
			t.Errorf("%s and %s do not share a key", alias, id)
		}
	}
	if ids := IDs(); len(ids) != len(registry)+1 || ids[len(ids)-1] != allID {
		t.Errorf("IDs() = %v", ids)
	}
}

// knobDoc renders the knob table as the markdown block DESIGN.md carries.
func knobDoc() string {
	var b strings.Builder
	b.WriteString("| request name | tecosim flag | kind | default | bounds | in cache key |\n|---|---|---|---|---|---|\n")
	for i := range knobs {
		k := &knobs[i]
		var o Options
		kind, def, bounds := "", "", "—"
		switch p := k.ref(&o).(type) {
		case *int:
			kind, def = "int", fmt.Sprint(*p)
		case *int64:
			kind, def = "int64", fmt.Sprint(*p)
		case *float64:
			kind, def = "float", fmt.Sprint(*p)
		case *bool:
			kind, def = "bool", fmt.Sprint(*p)
		case *string:
			kind, def = "string", `""`
			if k.enum != nil {
				kind, bounds = "enum", strings.Join(k.enum, ", ")
			}
		}
		switch {
		case kind == "bool" || kind == "string" || kind == "enum":
		case math.IsInf(k.hi, 1):
			bounds = "any"
		default:
			bounds = num(k.lo) + "…" + num(k.hi)
		}
		name, key := "`"+k.name+"`", "yes"
		if k.sched {
			name, key = "— (flag only)", "no"
		}
		fmt.Fprintf(&b, "| %s | `-%s` | %s | %s | %s | %s |\n", name, strings.ReplaceAll(k.name, "_", "-"), kind, def, bounds, key)
	}
	return b.String()
}

// TestDesignKnobTable diff-tests DESIGN.md's knob table against the one
// declaration (go test ./internal/experiments -run DesignKnobTable -update
// rewrites it).
func TestDesignKnobTable(t *testing.T) {
	const path, begin, end = "../../DESIGN.md", "<!-- knobs:begin -->\n", "<!-- knobs:end -->"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	i, j := strings.Index(doc, begin), strings.Index(doc, end)
	if i < 0 || j < i {
		t.Fatalf("%s has no %s…%s block", path, strings.TrimSpace(begin), end)
	}
	i += len(begin)
	if want := knobDoc(); doc[i:j] != want {
		if !*updateDocs {
			t.Fatalf("DESIGN.md knob table is stale (rerun with -update); want:\n%s", want)
		}
		if err := os.WriteFile(path, []byte(doc[:i]+want+doc[j:]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFlagsKeepParentDefaults: every flag the knob table registers keeps
// the name and default tecosim has always had.
func TestFlagsKeepParentDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := Options{Seed: 42}
	RegisterFlags(fs, &o)
	want := map[string]string{
		"seed": "42", "ber": "0", "retry-budget": "0", "degrade": "false", "ckpt-interval": "0",
		"ckpt-dir": "", "crash-at": "0", "replicas": "0", "host-ports": "0", "kill-port": "0",
		"kill-step": "0", "layers": "0", "cache-pct": "0", "prefetch": "0", "layer-policy": "",
		"layer-seq-len": "0", "tier-policy": "", "tier-dram-pct": "0", "tier-migrate-budget": "0",
		"workers": "0", "no-memo": "false",
	}
	fs.VisitAll(func(f *flag.Flag) {
		def, ok := want[f.Name]
		if !ok {
			t.Errorf("new flag -%s", f.Name)
		} else if f.DefValue != def {
			t.Errorf("-%s default %q, want %q", f.Name, f.DefValue, def)
		}
		delete(want, f.Name)
	})
	for name := range want {
		t.Errorf("flag -%s is gone", name)
	}
	if err := fs.Parse([]string{"-no-memo", "-layer-policy", "pin", "-workers", "3"}); err != nil {
		t.Fatal(err)
	}
	if !o.NoMemo || o.LayerPolicy != "pin" || o.Workers != 3 || o.Seed != 42 {
		t.Fatalf("parsed flags did not reach Options: %+v", o)
	}
}
