package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"teco/internal/conformance"
)

// table mirrors the JSON shape of a result table (the golden files and the
// daemon's "tables" payload). The benchmark keeps its own copy of the shape
// and hands tables to internal/conformance as JSON, so it depends on the
// wire format only, not on the experiments package.
type table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// parseMarkdown reads back what `tecosim -markdown` prints: a
// "### id — title" heading, a header row, a separator row, data rows, and
// "*note*" lines.
func parseMarkdown(out string) ([]table, error) {
	var tabs []table
	var cur *table
	wantSep := false // the line after a header row is the "| --- |" separator
	for n, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "### "):
			id, title, ok := strings.Cut(strings.TrimPrefix(line, "### "), " — ")
			if !ok {
				return nil, fmt.Errorf("markdown line %d: heading without title: %q", n+1, line)
			}
			tabs = append(tabs, table{ID: id, Title: title})
			cur, wantSep = &tabs[len(tabs)-1], false
		case line == "":
		case cur == nil:
			return nil, fmt.Errorf("markdown line %d: text before the first table: %q", n+1, line)
		case strings.HasPrefix(line, "| ") && strings.HasSuffix(line, " |"):
			cells := strings.Split(line[2:len(line)-2], " | ")
			switch {
			case cur.Header == nil:
				cur.Header, wantSep = cells, true
			case wantSep:
				wantSep = false
			default:
				cur.Rows = append(cur.Rows, cells)
			}
		case len(line) >= 2 && line[0] == '*' && line[len(line)-1] == '*':
			cur.Notes = append(cur.Notes, line[1:len(line)-1])
		default:
			return nil, fmt.Errorf("markdown line %d: not a table line: %q", n+1, line)
		}
	}
	if len(tabs) == 0 {
		return nil, fmt.Errorf("markdown: no table found")
	}
	return tabs, nil
}

// goldens indexes the seed-42 golden tree by table ID.
type goldens map[string]table

func loadGoldens(root string) (goldens, error) {
	files, err := filepath.Glob(filepath.Join(root, "internal", "conformance", "testdata", "golden", "*.json"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("golden tree not found under %s (err %v)", root, err)
	}
	g := goldens{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var tabs []table
		if err := json.Unmarshal(b, &tabs); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, t := range tabs {
			g[t.ID] = t
		}
	}
	return g, nil
}

// seedDependent lists the table IDs whose cells change with -seed (they
// descend from real training or a seeded fault model). At any seed but the
// golden one they get a shape check only; every other table is diffed in
// full at every seed.
var seedDependent = map[string]bool{
	"fig2a": true, "fig2b": true, "table5": true, "fig10": true,
	"fig13": true, "table8": true, "faults": true, "recovery": true,
	"fabric-faults": true, // one cell moves by 0.1 ms at about one seed in five
}

// check diffs one fresh table against its golden with the conformance
// package's own tolerances and returns the mismatches.
func (g goldens) check(fresh table, seed int64) []error {
	want, ok := g[fresh.ID]
	if !ok {
		return []error{fmt.Errorf("%s: no golden table", fresh.ID)}
	}
	if seed != conformance.GoldenSeed && seedDependent[fresh.ID] {
		return shapeDiff(want, fresh)
	}
	return conformanceDiff(want, fresh)
}

// conformanceDiff hands both tables to internal/conformance in its golden
// encoding, so the diff rules and per-table tolerances are the package's.
func conformanceDiff(want, fresh table) []error {
	var sides [2][]byte
	for i, t := range []table{want, fresh} {
		b, err := json.Marshal([]table{t})
		if err != nil {
			return []error{err}
		}
		sides[i] = b
	}
	gt, err := conformance.Unmarshal(sides[0])
	if err != nil {
		return []error{err}
	}
	ft, err := conformance.Unmarshal(sides[1])
	if err != nil {
		return []error{err}
	}
	return conformance.Diff(gt, ft)
}

// shapeDiff checks what stays fixed across seeds: identity, header, and the
// row and column counts.
func shapeDiff(want, fresh table) []error {
	var errs []error
	if want.Title != fresh.Title || strings.Join(want.Header, "|") != strings.Join(fresh.Header, "|") {
		errs = append(errs, fmt.Errorf("%s: title or header differs from golden", fresh.ID))
	}
	if len(want.Rows) != len(fresh.Rows) || len(want.Notes) != len(fresh.Notes) {
		return append(errs, fmt.Errorf("%s: %d rows/%d notes, golden has %d/%d",
			fresh.ID, len(fresh.Rows), len(fresh.Notes), len(want.Rows), len(want.Notes)))
	}
	for r := range want.Rows {
		if len(want.Rows[r]) != len(fresh.Rows[r]) {
			errs = append(errs, fmt.Errorf("%s: row %d has %d cells, golden has %d", fresh.ID, r, len(fresh.Rows[r]), len(want.Rows[r])))
		}
	}
	return errs
}
