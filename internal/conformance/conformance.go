// Package conformance is the repository's conformance harness: a golden
// regression suite pinning every paper-figure generator at the canonical
// seed, plus the glue shared with the runtime invariant layer
// (internal/conformance/check) and the property harness
// (internal/conformance/prop). See DESIGN.md "Conformance and invariants".
//
// The golden suite serializes the full result tables of every experiment in
// internal/experiments to testdata/golden/<id>.json, and go test requires the
// regenerated bytes to equal the pinned ones on every architecture. Any
// drift — one changed low-order digit, a reordered row, a deleted golden
// file — fails ./internal/conformance; Diff only names the fields that
// differ. No table carries a tolerance: the numeric code blocks fused
// multiply-adds with explicit conversions (see package kernels), and
// fma_test.go at the repository root proves it for four architectures.
// Intentional changes are re-pinned with
//
//	go test ./internal/conformance -run TestGolden -update
//
// (or `make golden`), which rewrites the files byte-identically from the
// generators.
package conformance

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"teco/internal/experiments"
)

// GoldenSeed is the canonical seed every golden table is generated at. It is
// the seed the paper-reproduction README quotes; changing it invalidates the
// whole testdata/golden tree.
const GoldenSeed = 42

// Generate runs one experiment generator at the canonical seed.
func Generate(id string) ([]*experiments.Table, error) {
	return experiments.ByID(id, experiments.Options{Seed: GoldenSeed})
}

// Unmarshal decodes a golden file.
func Unmarshal(data []byte) ([]*experiments.Table, error) {
	var tables []*experiments.Table
	if err := json.Unmarshal(data, &tables); err != nil {
		return nil, err
	}
	return tables, nil
}

// Diff compares regenerated tables against golden ones field by field and
// returns every mismatch: identity, header, row and note counts, every cell
// and every note must be equal strings. It only explains a byte mismatch;
// there is no tolerance, so any difference is an error.
func Diff(golden, fresh []*experiments.Table) []error {
	var errs []error
	if len(golden) != len(fresh) {
		return []error{fmt.Errorf("table count: golden %d, regenerated %d", len(golden), len(fresh))}
	}
	for i, g := range golden {
		f := fresh[i]
		if g.ID != f.ID || g.Title != f.Title {
			errs = append(errs, fmt.Errorf("table %d identity: golden %q/%q, regenerated %q/%q",
				i, g.ID, g.Title, f.ID, f.Title))
			continue
		}
		if !slices.Equal(g.Header, f.Header) {
			errs = append(errs, fmt.Errorf("%s: header: golden %v, regenerated %v", g.ID, g.Header, f.Header))
			continue
		}
		if len(g.Rows) != len(f.Rows) {
			errs = append(errs, fmt.Errorf("%s: row count: golden %d, regenerated %d", g.ID, len(g.Rows), len(f.Rows)))
			continue
		}
		for r := range g.Rows {
			gr, fr := g.Rows[r], f.Rows[r]
			if len(gr) != len(fr) {
				errs = append(errs, fmt.Errorf("%s: row %d width: golden %d, regenerated %d", g.ID, r, len(gr), len(fr)))
				continue
			}
			for c := range gr {
				if gr[c] != fr[c] {
					errs = append(errs, fmt.Errorf("%s: row %d col %q: golden %q, regenerated %q",
						g.ID, r, colName(g.Header, c), gr[c], fr[c]))
				}
			}
		}
		if len(g.Notes) != len(f.Notes) {
			errs = append(errs, fmt.Errorf("%s: note count: golden %d, regenerated %d", g.ID, len(g.Notes), len(f.Notes)))
			continue
		}
		for n := range g.Notes {
			if g.Notes[n] != f.Notes[n] {
				errs = append(errs, fmt.Errorf("%s: note %d: golden %q, regenerated %q", g.ID, n, g.Notes[n], f.Notes[n]))
			}
		}
	}
	return errs
}

func colName(header []string, c int) string {
	if c < len(header) {
		return header[c]
	}
	return strconv.Itoa(c)
}
