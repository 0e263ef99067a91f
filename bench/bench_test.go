package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"teco/bench/spec"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec before checking it")

// writeBenchmarkJSON renders spec in the PR driver's schema.
func writeBenchmarkJSON(path string) error {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{Command: []string{"go", "run", "-C", "bench", "."}, Paths: []string{"bench"}, RunSeconds: spec.RunSeconds}
	for _, w := range spec.Workloads {
		doc.Workloads = append(doc.Workloads, workload{w.Name, w.Why})
	}
	for _, m := range spec.EndToEnd {
		bound := m.Bound
		doc.EndToEnd = append(doc.EndToEnd, metric{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range spec.PerLayer {
		doc.PerLayer = append(doc.PerLayer, metric{m.Name, m.Unit, m.Better, nil})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // keep ">" readable in the workloads' why
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// TestBenchmarkJSON checks BENCHMARK.json against the PR driver's contract
// and against spec, which is what the benchmark actually reports. Run with
// -update after changing spec.
func TestBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := writeBenchmarkJSON(path); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(keys) != len(wantKeys) {
		t.Errorf("top-level keys %v, want exactly %v", sortedKeys(keys), wantKeys)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string   `json:"name"`
			Unit   string   `json:"unit"`
			Better string   `json:"better"`
			Bound  *float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"go", "run", "-C", "bench", "."}) || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds != spec.RunSeconds || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d, spec says %d", b.RunSeconds, spec.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if n := len(b.Workloads); n < 2 || n > 8 || n != len(spec.Workloads) {
		t.Fatalf("%d workloads, spec has %d", n, len(spec.Workloads))
	}
	known := map[string]bool{}
	for i, w := range b.Workloads {
		name(w.Name)
		known[w.Name] = true
		if w.Name != spec.Workloads[i].Name || w.Why != spec.Workloads[i].Why {
			t.Errorf("workload %d is %q, spec says %q", i, w.Name, spec.Workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters or has a line break", w.Name, len(w.Why))
		}
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}

	if n := len(b.EndToEnd); n < 1 || n > 16 || n != len(spec.EndToEnd) {
		t.Fatalf("%d end-to-end metrics, spec has %d", n, len(spec.EndToEnd))
	}
	metrics := map[string]bool{}
	for i, m := range b.EndToEnd {
		name(m.Name)
		metrics[m.Name] = true
		want := spec.EndToEnd[i]
		if m.Bound == nil {
			t.Fatalf("metric %s has no bound", m.Name)
		}
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || *m.Bound != want.Bound {
			t.Errorf("end-to-end metric %d is %+v (bound %v), spec says %+v", i, m, *m.Bound, want)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: unit, direction or bound outside the contract", m.Name)
		}
	}
	if !metrics["setup_s"] {
		t.Error("no setup_s metric")
	}

	if n := len(b.PerLayer); n < 1 || n > 128 || n != len(spec.PerLayer) {
		t.Fatalf("%d per-layer metrics, spec has %d", n, len(spec.PerLayer))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		want := spec.PerLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer metric %d is %+v, spec says %s %s %s", i, m, want.Name, want.Unit, want.Better)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit or direction outside the contract", m.Name)
		}
		if len(want.Moves) == 0 {
			t.Errorf("metric %s moves nothing", m.Name)
		}
		for _, mv := range want.Moves {
			if !metrics[mv.Metric] || !known[mv.Workload] {
				t.Errorf("metric %s moves %s on %s, which does not exist", m.Name, mv.Metric, mv.Workload)
			}
		}
	}
}

func TestQuantilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(v, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// TestTailRule: a percentile is reported only with at least ten samples
// beyond it, and never above the workload's fixed percentile.
func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)
		}
		return v
	}
	for _, c := range []struct {
		n     int
		want  float64
		label string
		value float64
	}{
		{5, 0.99, "p50", 2},       // too few samples for any tail: the median
		{40, 0.99, "p50", 19.5},   // p75 would leave 9 beyond
		{41, 0.99, "p75", 30},     // 10 beyond
		{100, 0.99, "p75", 75},    // p90 would leave 9 beyond
		{101, 0.99, "p90", 90},    // 10 beyond
		{1100, 0.99, "p99", 1089}, // 10 beyond
		{1100, 0.95, "p95", 1045}, // capped by the workload's percentile
		{20000, 0.999, "p99.9", 19980},
	} {
		got, label := tail(seq(c.n), c.want)
		if label != c.label || got != c.value {
			t.Errorf("tail(n=%d, want %v) = %v %s, want %v %s", c.n, c.want, got, label, c.value, c.label)
		}
	}
	s := summarize([]float64{3, 1, 2}, 0.9)
	if s.N != 3 || s.P50 != 2 || s.Tail != 2 || s.TailPct != "p50" {
		t.Errorf("summarize = %+v", s)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "phase", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "a", Start: 10 * ms, End: 30 * ms, Parent: 0},
		{Name: "b", Start: 20 * ms, End: 50 * ms, Parent: 0}, // overlaps a
		{Name: "c", Start: 70 * ms, End: 80 * ms, Parent: 0},
		{Name: "a1", Start: 12 * ms, End: 18 * ms, Parent: 1},
		{Name: "late", Start: 95 * ms, End: 120 * ms, Parent: 0}, // clipped to its parent
	}
	want := []time.Duration{45 * ms, 14 * ms, 30 * ms, 10 * ms, 6 * ms, 25 * ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderWritesChromeTrace(t *testing.T) {
	var off *recorder
	off.end(off.begin("nothing", "none", 0, -1)) // tracing off: no-ops

	rec := newRecorder("train")
	p := rec.begin("phase", "bench", 0, -1)
	c := rec.begin("call", "realtrain", 1, p)
	rec.end(c)
	rec.end(p)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rec.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Ts, Dur       float64
			Args          map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Ph != "X" || doc.TraceEvents[1].Cat != "realtrain" ||
		doc.TraceEvents[1].Args["parent"] != float64(0) || doc.TraceEvents[1].Args["workload"] != "train" {
		t.Errorf("trace events: %+v", doc.TraceEvents)
	}
}

// tecosim -markdown prints each table as Table.Markdown does; the literal
// below follows that format, with a note, an empty cell and a second table.
const markdownSample = `### fig11 — Speedup over ZeRO-Offload (Fig 11 / Table IV)

| Model | Batch | TECO-CXL | Paper |
| --- | --- | --- | --- |
| GPT2 | 4 | 1.52x | 1.82x |
| T5-large | 16 | OOM |  |

*GCNII runs full-graph (batch column = 1); a * inside a note survives*

*second note*

### table7 — Lossy compression

| Metric | Measured |
| --- | --- |
| slowdown | 2.87x |

`

func TestParseMarkdown(t *testing.T) {
	got, err := parseMarkdown(markdownSample)
	if err != nil {
		t.Fatal(err)
	}
	want := []table{
		{
			ID: "fig11", Title: "Speedup over ZeRO-Offload (Fig 11 / Table IV)",
			Header: []string{"Model", "Batch", "TECO-CXL", "Paper"},
			Rows:   [][]string{{"GPT2", "4", "1.52x", "1.82x"}, {"T5-large", "16", "OOM", ""}},
			Notes:  []string{"GCNII runs full-graph (batch column = 1); a * inside a note survives", "second note"},
		},
		{ID: "table7", Title: "Lossy compression", Header: []string{"Metric", "Measured"}, Rows: [][]string{{"slowdown", "2.87x"}}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseMarkdown:\n got %+v\nwant %+v", got, want)
	}
	for _, bad := range []string{"", "stray text\n", "### heading without title\n", "### a — b\nnot a row\n"} {
		if _, err := parseMarkdown(bad); err == nil {
			t.Errorf("parseMarkdown(%q) did not fail", bad)
		}
	}
}

// TestGoldenCheck points the golden check at deliberately wrong tables: it
// must fail them, and pass the untouched golden.
func TestGoldenCheck(t *testing.T) {
	g, err := loadGoldens("..")
	if err != nil {
		t.Fatal(err)
	}
	clone := func(id string) table {
		var c table
		b, _ := json.Marshal(g[id])
		if err := json.Unmarshal(b, &c); err != nil || c.ID != id {
			t.Fatalf("golden %s: %v", id, err)
		}
		return c
	}
	if errs := g.check(clone("table1"), 42); len(errs) != 0 {
		t.Errorf("untouched golden fails its own check: %v", errs)
	}
	wrong := clone("table1")
	wrong.Rows[0][len(wrong.Rows[0])-1] = "99.9%"
	if errs := g.check(wrong, 42); len(errs) == 0 {
		t.Error("a wrong cell in a seed-independent table passed at seed 42")
	}
	if errs := g.check(wrong, 7); len(errs) == 0 {
		t.Error("a wrong cell in a seed-independent table passed at another seed")
	}
	// table5 descends from real training: its cells move with the seed,
	// its shape does not.
	moved := clone("table5")
	moved.Rows[0][1] = "0.0001"
	if errs := g.check(moved, 42); len(errs) == 0 {
		t.Error("a wrong cell in table5 passed at the golden seed")
	}
	if errs := g.check(moved, 7); len(errs) != 0 {
		t.Errorf("table5 with a different cell fails the shape check at another seed: %v", errs)
	}
	moved.Rows = moved.Rows[1:]
	if errs := g.check(moved, 7); len(errs) == 0 {
		t.Error("table5 with a row missing passed the shape check")
	}
	if errs := g.check(table{ID: "no-such-table"}, 42); len(errs) == 0 {
		t.Error("a table without a golden passed")
	}
	// The suite's whole-output check reports the same failure.
	md := strings.Replace(markdownSample, "| GPT2 | 4 | 1.52x | 1.82x |", "| GPT2 | 4 | 9.99x | 1.82x |", 1)
	if _, errs := checkSuiteOutput([]byte(md), g, 42); len(errs) == 0 {
		t.Error("suite output with wrong tables passed the golden check")
	}
}

func TestVerdict(t *testing.T) {
	lower := spec.Metric{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := spec.Metric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	for _, c := range []struct {
		name string
		m    spec.Metric
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower", lower, steady, shift(steady, 1.2), "regressed"},
		{"faster", lower, steady, shift(steady, 0.8), "ok"},
		{"rate down", higher, steady, shift(steady, 0.8), "regressed"},
		{"rate up", higher, steady, shift(steady, 1.2), "ok"},
		{"noisy", lower, noisy, noisy, "unresolved"},
		{"noisy but every run better", lower, noisy, shift(steady, 0.5), "ok"},
	} {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSmoke runs the in-process workloads at 1/100 scale through the same
// code path as a real run, traced, with every correctness check on.
func TestSmoke(t *testing.T) {
	rec := newRecorder("smoke")
	p := params{ctx: context.Background(), seed: 7, seconds: 0.05, scale: 0.01, rec: rec}
	for _, name := range []string{"train", "model-simulate", "model-baseline", "model-replay"} {
		r, err := workloads[name](p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r.finish()
		if r.Attempted < 1 || r.Failed != 0 || len(r.Exact) == 0 {
			t.Errorf("%s: attempted %d failed %d exact %v", name, r.Attempted, r.Failed, r.Exact)
		}
		for _, m := range spec.EndToEnd {
			if v := r.Metrics[m.Name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", name, m.Name, v)
			}
		}
	}
	if len(rec.spans) < 8 {
		t.Errorf("traced smoke run recorded %d spans", len(rec.spans))
	}
	for i, s := range rec.spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) was never closed", i, s.Name)
		}
	}
}
