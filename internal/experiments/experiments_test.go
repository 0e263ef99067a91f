package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Header: []string{"A", "Bee"}}
	tab.AddRow("1", "2")
	tab.Note("hello %d", 7)
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "A", "Bee", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in %q", want, out)
		}
	}
	buf.Reset()
	tab.Markdown(&buf)
	if !strings.Contains(buf.String(), "| A | Bee |") {
		t.Fatalf("markdown = %q", buf.String())
	}
}

func TestTableI(t *testing.T) {
	tab := TableI(Options{})
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Measured fractions decrease with batch size.
	var prev float64 = 101
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[2], "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if v >= prev {
			t.Fatalf("fractions not decreasing: %v", tab.Rows)
		}
		prev = v
	}
}

func TestFig11Speedups(t *testing.T) {
	tab := Fig11TableIV(Options{})
	if len(tab.Rows) < 13 { // 4 models x 3 batches + GCNII
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	oomRows := 0
	for _, row := range tab.Rows {
		if row[2] == "OOM" {
			oomRows++
			continue
		}
		for _, col := range []int{2, 3} {
			v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "x"), 64)
			if err != nil {
				t.Fatalf("row %v col %d: %v", row, col, err)
			}
			if v <= 1.0 || v > 2.5 {
				t.Fatalf("speedup %v out of range in %v", v, row)
			}
		}
	}
	if oomRows != 1 {
		t.Fatalf("expected exactly the T5 batch-16 OOM row, got %d", oomRows)
	}
}

func TestAblationInvalidation(t *testing.T) {
	tab := AblationInvalidation(Options{})
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if v <= 0 {
			t.Fatalf("invalidation must cost time: %v", row)
		}
	}
}

func TestFig12Breakdown(t *testing.T) {
	tab := Fig12(Options{})
	if len(tab.Rows) != 6 { // 2 batches x 3 systems
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestTableVIAndVolume(t *testing.T) {
	if len(TableVI(Options{}).Rows) != 4 {
		t.Fatal("table6 rows")
	}
	vol := CommVolume(Options{})
	if len(vol.Rows) != 5 {
		t.Fatal("volume rows")
	}
	// TECO-R param bytes must be half of ZeRO's.
	for _, row := range vol.Rows {
		z, _ := strconv.ParseFloat(strings.TrimSuffix(row[1], "GB"), 64)
		r, _ := strconv.ParseFloat(strings.TrimSuffix(row[2], "GB"), 64)
		if r < 0.45*z || r > 0.55*z {
			t.Fatalf("DBA param volume not halved: %v", row)
		}
	}
}

func TestTableVIIAndVIII(t *testing.T) {
	t7 := TableVII(Options{})
	if len(t7.Rows) != 2 {
		t.Fatal("table7 rows")
	}
	t8 := TableVIII(Options{Seed: 1})
	if len(t8.Rows) != 4 {
		t.Fatal("table8 rows")
	}
	for _, row := range t8.Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < 1.2 {
			t.Fatalf("lossless pipeline must be slower than TECO: %v", row)
		}
	}
}

func TestLAMMPSTable(t *testing.T) {
	tab := LAMMPS(Options{})
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"table1", "fig12", "volume", "table6", "table7", "lammps"} {
		tabs, err := ByID(id, Options{Seed: 1})
		if err != nil || len(tabs) == 0 {
			t.Fatalf("ByID(%s): %v", id, err)
		}
	}
	if _, err := ByID("nonsense", Options{Seed: 1}); err == nil {
		t.Fatal("unknown id must error")
	}
	if len(IDs()) < 13 {
		t.Fatal("IDs list incomplete")
	}
}

// TestRealTrainExperiments runs the slower accuracy experiments once.
func TestRealTrainExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("real training in -short mode")
	}
	f2 := Fig2(Options{Seed: 3})
	if len(f2) != 2 || len(f2[0].Rows) == 0 || len(f2[1].Rows) == 0 {
		t.Fatal("fig2 rows")
	}
	f10 := Fig10(Options{Seed: 3})
	if len(f10.Rows) < 10 {
		t.Fatal("fig10 rows")
	}
	f13 := Fig13(Options{Seed: 3})
	if len(f13.Rows) != 6 {
		t.Fatalf("fig13 rows = %d", len(f13.Rows))
	}
	// Speedups in fig13 must decrease as activation is delayed (less DBA
	// time) — i.e. first row has the highest speedup.
	first, _ := strconv.ParseFloat(strings.TrimSuffix(f13.Rows[0][3], "x"), 64)
	last, _ := strconv.ParseFloat(strings.TrimSuffix(f13.Rows[len(f13.Rows)-1][3], "x"), 64)
	if first <= last {
		t.Fatalf("speedup should fall with later activation: %v vs %v", first, last)
	}
	t5 := TableV(Options{Seed: 3})
	if len(t5.Rows) != 9 {
		t.Fatalf("table5 rows = %d", len(t5.Rows))
	}
}

func TestRecoverySweepTable(t *testing.T) {
	if testing.Short() {
		t.Skip("real training in -short mode")
	}
	tab := RecoverySweep(Options{Seed: 5, CkptInterval: 10, CrashAt: 13})
	if len(tab.Rows) != 3 { // one interval x three rates
		t.Fatalf("rows = %d: %v", len(tab.Rows), tab.Rows)
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "yes" {
			t.Fatalf("recovered run not bit-identical: %v", row)
		}
	}
	// The crash at step 13 with interval 10 forces replay even at rate 0.
	if tab.Rows[0][6] == "0" {
		t.Fatalf("crash-restore row reports no replayed steps: %v", tab.Rows[0])
	}
	if _, err := ByID("recovery", Options{CrashAt: -1}); err == nil {
		t.Fatal("negative crash step accepted")
	}
	if _, err := ByID("recovery", Options{CkptInterval: -2}); err == nil {
		t.Fatal("negative checkpoint interval accepted")
	}
}

func TestAblationDPUTable(t *testing.T) {
	tab := AblationDPU(Options{})
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestLinkSpeedSweep(t *testing.T) {
	tab := LinkSpeedSweep(Options{})
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Speedup stays > 1 across generations.
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[4], "x"), 64)
		if err != nil || v <= 1.0 {
			t.Fatalf("row %v: speedup %v err %v", row, v, err)
		}
	}
}

func TestTimeToLossTable(t *testing.T) {
	if testing.Short() {
		t.Skip("real training in -short mode")
	}
	tab := TimeToLoss(Options{Seed: 3})
	if len(tab.Rows) < 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "x"), 64)
		if err != nil || v <= 1.0 {
			t.Fatalf("TECO must reach every level sooner: %v", row)
		}
	}
}

func TestTuneActTable(t *testing.T) {
	if testing.Short() {
		t.Skip("Bayesian optimization runs many trainings")
	}
	tab := TuneActAfterSteps(Options{Seed: 5})
	if len(tab.Rows) < 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if len(tab.Notes) == 0 || !strings.Contains(tab.Notes[0], "best act_aft_steps") {
		t.Fatalf("notes = %v", tab.Notes)
	}
}
