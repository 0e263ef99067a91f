package conformance

import (
	"testing"

	"teco/internal/experiments"
)

func tbl(id string, notes []string, rows ...[]string) *experiments.Table {
	return &experiments.Table{ID: id, Title: "t", Header: []string{"A", "B"}, Rows: rows, Notes: notes}
}

// TestDiffStructureAlwaysExact: structure and values alike, every
// difference is a mismatch — on fig10, a training-derived table, a drift in
// the fourth decimal or in a note fails.
func TestDiffStructureAlwaysExact(t *testing.T) {
	note := []string{"average penalty 56.6% (paper: 56.6% average, up to 99.7%)"}
	g := tbl("fig10", note, []string{"1", "0.5000"})
	for name, f := range map[string]*experiments.Table{
		"row count":       tbl("fig10", note, []string{"1", "0.5000"}, []string{"2", "0.4000"}),
		"cell drift":      tbl("fig10", note, []string{"1", "0.5050"}),
		"last-digit cell": tbl("fig10", note, []string{"1", "0.5001"}),
		"unit suffix":     tbl("fig10", note, []string{"1", "0.5000%"}),
		"note drift":      tbl("fig10", []string{"average penalty 56.8% (paper: 56.6% average, up to 99.7%)"}, []string{"1", "0.5000"}),
		"note count":      tbl("fig10", nil, []string{"1", "0.5000"}),
		"identity":        tbl("table1", note, []string{"1", "0.5000"}),
	} {
		if errs := Diff([]*experiments.Table{g}, []*experiments.Table{f}); len(errs) == 0 {
			t.Errorf("%s: drift passed the diff", name)
		}
	}
	same := tbl("fig10", note, []string{"1", "0.5000"})
	if errs := Diff([]*experiments.Table{g}, []*experiments.Table{same}); len(errs) != 0 {
		t.Errorf("equal tables reported: %v", errs)
	}
}
