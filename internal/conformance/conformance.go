// Package conformance is the repository's conformance harness: a golden
// regression suite pinning every paper-figure generator at the canonical
// seed, plus the glue shared with the runtime invariant layer
// (internal/conformance/check) and the property harness
// (internal/conformance/prop). See DESIGN.md "Conformance and invariants".
//
// The golden suite serializes the full result tables of every experiment in
// internal/experiments to testdata/golden/<id>.json and diffs them field by
// field in go test. Any drift — a changed cell, a reordered row, a deleted
// golden file — fails ./internal/conformance. Intentional changes are
// re-pinned with
//
//	go test ./internal/conformance -run TestGolden -update
//
// (or `make golden`), which rewrites the files byte-identically from the
// generators.
package conformance

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

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

// Tolerance relaxes the cell diff for one table. Zero tolerance (the
// default for every table not listed in tolerances) means byte equality.
type Tolerance struct {
	// Cells is the relative tolerance applied to every numeric cell: two
	// cells agree when their numeric prefixes differ by at most
	// Cells·max(1, |a|, |b|) and their unit suffixes match exactly.
	Cells float64
	// Notes is the tolerance for numbers embedded in table notes; the
	// non-numeric text must still match exactly.
	Notes float64
}

// tolerances lists the calibration-sensitive tables, keyed by Table.ID (not
// experiment id — the fig2 experiment emits tables fig2a and fig2b). These
// are exactly the tables whose cells descend from iterative floating-point
// training (realtrain, the MD proxy, the Bayesian tuner), where the Go
// compiler is free to contract a*b+c into a fused multiply-add on some
// architectures; everything else in the suite is integer-picosecond event
// simulation plus single IEEE divisions and must match byte for byte.
var tolerances = map[string]Tolerance{
	"fig2a":        {Cells: 0.02, Notes: 0.02},
	"fig2b":        {Cells: 0.02, Notes: 0.02},
	"table5":       {Cells: 0.02, Notes: 0.02},
	"fig10":        {Cells: 0.02, Notes: 0.02},
	"fig13":        {Cells: 0.02, Notes: 0.02},
	"tune-act":     {Cells: 0.05, Notes: 0.05},
	"time-to-loss": {Cells: 0.02, Notes: 0.02},
	"table7":       {Cells: 0.02, Notes: 0.02},
	"table8":       {Cells: 0.02, Notes: 0.02},
	"lammps":       {Cells: 0.02, Notes: 0.02},
}

// ToleranceFor returns the diff tolerance for a table ID.
func ToleranceFor(tableID string) Tolerance { return tolerances[tableID] }

// Diff compares regenerated tables against golden ones field by field and
// returns every mismatch. Structure (table count, IDs, titles, headers, row
// counts, note counts) must always match exactly; cell and note values are
// relaxed only by the table's Tolerance.
func Diff(golden, fresh []*experiments.Table) []error {
	var errs []error
	if len(golden) != len(fresh) {
		return []error{fmt.Errorf("table count: golden %d, regenerated %d", len(golden), len(fresh))}
	}
	for i, g := range golden {
		f := fresh[i]
		tol := ToleranceFor(g.ID)
		if g.ID != f.ID || g.Title != f.Title {
			errs = append(errs, fmt.Errorf("table %d identity: golden %q/%q, regenerated %q/%q",
				i, g.ID, g.Title, f.ID, f.Title))
			continue
		}
		if !equalStrings(g.Header, f.Header) {
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
				if !cellsAgree(gr[c], fr[c], tol.Cells) {
					errs = append(errs, fmt.Errorf("%s: row %d col %q: golden %q, regenerated %q (tol %v)",
						g.ID, r, colName(g.Header, c), gr[c], fr[c], tol.Cells))
				}
			}
		}
		if len(g.Notes) != len(f.Notes) {
			errs = append(errs, fmt.Errorf("%s: note count: golden %d, regenerated %d", g.ID, len(g.Notes), len(f.Notes)))
			continue
		}
		for n := range g.Notes {
			if !notesAgree(g.Notes[n], f.Notes[n], tol.Notes) {
				errs = append(errs, fmt.Errorf("%s: note %d: golden %q, regenerated %q (tol %v)",
					g.ID, n, g.Notes[n], f.Notes[n], tol.Notes))
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

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cellsAgree reports whether two cell strings match: byte-equal, or — when
// the table carries a tolerance — numerically close with identical unit
// suffixes ("42.24%" vs "42.25%", "1.82x" vs "1.83x").
func cellsAgree(a, b string, tol float64) bool {
	if a == b {
		return true
	}
	if tol <= 0 {
		return false
	}
	av, asuf, aok := splitNumber(a)
	bv, bsuf, bok := splitNumber(b)
	return aok && bok && asuf == bsuf && within(av, bv, tol)
}

// notesAgree compares note strings with every embedded number relaxed by tol
// and the interleaved text required to match exactly.
func notesAgree(a, b string, tol float64) bool {
	if a == b {
		return true
	}
	if tol <= 0 {
		return false
	}
	at, an := tokenizeNumbers(a)
	bt, bn := tokenizeNumbers(b)
	if at != bt || len(an) != len(bn) {
		return false
	}
	for i := range an {
		if !within(an[i], bn[i], tol) {
			return false
		}
	}
	return true
}

// within reports |a-b| <= tol·max(1, |a|, |b|): relative for large values,
// degrading to an absolute budget of tol itself for magnitudes below one
// (so 0.00 and 0.01 agree at tol 0.02, but 0.0 and 0.1 do not).
func within(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// splitNumber splits a cell into its leading decimal number and the
// remaining unit suffix. It fails (ok=false) when the cell does not start
// with a number.
func splitNumber(s string) (v float64, suffix string, ok bool) {
	i := 0
	if i < len(s) && (s[i] == '-' || s[i] == '+') {
		i++
	}
	digits := false
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
		digits = true
	}
	if i < len(s) && s[i] == '.' {
		i++
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
			digits = true
		}
	}
	if !digits {
		return 0, "", false
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, "", false
	}
	return v, s[i:], true
}

// tokenizeNumbers replaces every decimal number in s with the placeholder
// '#' and returns the resulting text skeleton plus the extracted numbers.
func tokenizeNumbers(s string) (string, []float64) {
	var sb strings.Builder
	var nums []float64
	for i := 0; i < len(s); {
		c := s[i]
		if c >= '0' && c <= '9' {
			j := i
			for j < len(s) && s[j] >= '0' && s[j] <= '9' {
				j++
			}
			if j < len(s) && s[j] == '.' && j+1 < len(s) && s[j+1] >= '0' && s[j+1] <= '9' {
				j++
				for j < len(s) && s[j] >= '0' && s[j] <= '9' {
					j++
				}
			}
			v, err := strconv.ParseFloat(s[i:j], 64)
			if err != nil {
				return s, nil
			}
			nums = append(nums, v)
			sb.WriteByte('#')
			i = j
			continue
		}
		sb.WriteByte(c)
		i++
	}
	return sb.String(), nums
}
