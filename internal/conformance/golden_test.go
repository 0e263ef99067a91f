package conformance

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"teco/internal/conformance/check"
	"teco/internal/experiments"
)

var update = flag.Bool("update", false, "regenerate testdata/golden from the generators at the canonical seed")

// goldenIDs returns every experiment id the golden suite pins: the full
// generator registry except "all", which is by construction the
// concatenation of the others and would only duplicate bytes on disk.
func goldenIDs() []string {
	var ids []string
	for _, id := range experiments.IDs() {
		if id == "all" {
			continue
		}
		ids = append(ids, id)
	}
	return ids
}

// marshal serializes tables to the canonical golden encoding: indented JSON
// with a trailing newline. encoding/json emits struct fields in declaration
// order and escapes deterministically, so equal tables marshal to equal
// bytes on every platform.
func marshal(tables []*experiments.Table) ([]byte, error) {
	b, err := json.MarshalIndent(tables, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".json")
}

// TestGolden regenerates every experiment at GoldenSeed and diffs it
// field-by-field against its pinned golden file. Run with -update to re-pin
// after an intentional model change; the files are written byte-identically
// from the generator output, so running -update twice is a no-op.
//
// The whole suite runs with the invariant layer enabled, so every
// conservation law in sim/cxl/coherence/dba/phases/core/realtrain is
// asserted across the full paper-figure workload, not just the unit tests.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden regeneration regenerates every experiment; skipped in -short")
	}
	if raceEnabled {
		t.Skip("golden regeneration skipped under -race (covered by the non-race run)")
	}
	check.Enable(t)

	if *update {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range goldenIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			check.Enable(t)
			tables, err := Generate(id)
			if err != nil {
				t.Fatalf("generate %s: %v", id, err)
			}
			fresh, err := marshal(tables)
			if err != nil {
				t.Fatalf("marshal %s: %v", id, err)
			}
			path := goldenPath(id)
			if *update {
				if err := os.WriteFile(path, fresh, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			pinned, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden for %s (run `make golden` or `go test ./internal/conformance -run TestGolden -update`): %v", id, err)
			}
			if bytes.Equal(pinned, fresh) {
				return
			}
			golden, err := Unmarshal(pinned)
			if err != nil {
				t.Fatalf("corrupt golden %s: %v", path, err)
			}
			for _, diff := range Diff(golden, tables) {
				t.Error(diff)
			}
			if !t.Failed() {
				t.Logf("%s: drift within tolerance of the pinned golden (re-pin with -update to silence)", id)
			}
		})
	}
}

// TestGoldenCoverage asserts the golden tree covers the generator registry
// exactly: one file per runnable experiment id, no stragglers. Deleting a
// golden file or adding a generator without re-pinning fails here.
func TestGoldenCoverage(t *testing.T) {
	want := append([]string(nil), goldenIDs()...)
	sort.Strings(want)

	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatalf("golden tree unreadable (run `make golden` to create it): %v", err)
	}
	var got []string
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) == ".json" {
			got = append(got, name[:len(name)-len(".json")])
		}
	}
	sort.Strings(got)

	if fmt.Sprint(want) != fmt.Sprint(got) {
		t.Fatalf("golden files do not match the generator registry:\n  generators: %v\n  files:      %v", want, got)
	}

	// The registry itself must still expose "all" (the concatenation id the
	// CLI documents) and goldenIDs must exclude it.
	all := false
	for _, id := range experiments.IDs() {
		if id == "all" {
			all = true
		}
	}
	if !all {
		t.Fatal(`experiments.IDs() no longer lists "all"`)
	}
	for _, id := range goldenIDs() {
		if id == "all" {
			t.Fatal(`goldenIDs must exclude "all"`)
		}
	}
}

// TestRenderGolden pins the text and markdown emitters byte for byte on
// cheap, fully deterministic tables (integer-picosecond simulation only).
// This is the locale/Go-version regression for Table.Render, Table.Markdown
// and the strconv-pinned cell formatters.
func TestRenderGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, id := range []string{"table1", "linkspeed", "fig12"} {
		tables, err := Generate(id)
		if err != nil {
			t.Fatalf("generate %s: %v", id, err)
		}
		for _, tb := range tables {
			tb.Render(&buf)
		}
		for _, tb := range tables {
			tb.Markdown(&buf)
		}
	}
	path := filepath.Join("testdata", "golden", "render.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	pinned, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing render golden (run -update): %v", err)
	}
	if !bytes.Equal(pinned, buf.Bytes()) {
		t.Errorf("rendered table output drifted from %s; diff the file or re-pin with -update\n got:\n%s", path, buf.String())
	}
}
