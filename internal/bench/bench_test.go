package bench

import (
	"strconv"
	"strings"
	"testing"

	"fcae/internal/core"
)

// parse reads a numeric cell.
func parse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestReportRendering(t *testing.T) {
	r := &Report{
		ID:     "X",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	s := r.String()
	for _, want := range []string{"X — demo", "a", "bb", "333", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestTableVShape(t *testing.T) {
	tv, f9 := TableV(Quick)
	if len(tv.Rows) != len(ValueLengths) {
		t.Fatalf("rows = %d", len(tv.Rows))
	}
	// CPU well below every FCAE cell; V=64 speed grows with value length.
	prevV64 := 0.0
	for _, row := range tv.Rows {
		cpu := parse(t, row[1])
		for _, cell := range row[2:] {
			if parse(t, cell) < cpu*10 {
				t.Fatalf("FCAE cell %s not >>10x CPU %s", cell, row[1])
			}
		}
		v64 := parse(t, row[5])
		if v64 < prevV64 {
			t.Fatalf("V=64 speed fell at Lvalue=%s", row[0])
		}
		prevV64 = v64
	}
	// Fig 9 peak must be in the paper's band (tens of x, approaching ~90).
	last := f9.Rows[len(f9.Rows)-1]
	if peak := parse(t, last[4]); peak < 60 || peak > 130 {
		t.Fatalf("Fig9 peak ratio %.1f outside the plausible band", peak)
	}
}

func TestTableVIIExactRows(t *testing.T) {
	r := TableVII()
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	fits := map[string]string{"2/64/16": "yes", "9/64/8": "no", "9/8/8": "yes"}
	for _, row := range r.Rows {
		key := row[0] + "/" + row[1] + "/" + row[2]
		if want, ok := fits[key]; ok && row[6] != want {
			t.Fatalf("config %s fits=%s, want %s", key, row[6], want)
		}
	}
}

func TestFig12Convergence(t *testing.T) {
	f12, f13 := Fig12And13(Quick)
	first := f12.Rows[0]
	last := f12.Rows[len(f12.Rows)-1]
	shortGap := parse(t, first[2]) / parse(t, first[1])
	longGap := parse(t, last[2]) / parse(t, last[1])
	if shortGap > 0.8 {
		t.Fatalf("9-input should be clearly slower at short values: %.2f", shortGap)
	}
	if longGap < 0.85 {
		t.Fatalf("9-input should converge at long values: %.2f", longGap)
	}
	// Fig 13: 9-input acceleration exceeds 2-input everywhere.
	for _, row := range f13.Rows {
		if parse(t, row[2]) <= parse(t, row[1]) {
			t.Fatalf("9-input acceleration should exceed 2-input at Lvalue=%s", row[0])
		}
	}
}

func TestTableVIRatiosAboveOne(t *testing.T) {
	_, f11 := TableVI(Quick)
	for _, row := range f11.Rows {
		for _, cell := range row[1:] {
			if parse(t, cell) <= 1 {
				t.Fatalf("FCAE must beat LevelDB at Lvalue=%s: ratio %s", row[0], cell)
			}
		}
	}
}

func TestFig10LevelDBFalls(t *testing.T) {
	r := Fig10(Quick)
	first := parse(t, r.Rows[0][1])
	last := parse(t, r.Rows[len(r.Rows)-1][1])
	if last >= first {
		t.Fatalf("LevelDB should fall with data size: %.1f -> %.1f", first, last)
	}
}

func TestFig16ReadOnlyNeutral(t *testing.T) {
	r := Fig16(Quick)
	for _, row := range r.Rows {
		if row[0] == "C" {
			if ratio := parse(t, row[3]); ratio < 0.99 || ratio > 1.01 {
				t.Fatalf("workload C ratio %.2f, want 1.00", ratio)
			}
		}
	}
}

func TestAblationsShowBenefit(t *testing.T) {
	r := Ablations(Quick)
	for _, row := range r.Rows {
		full := parse(t, row[1])
		noKV := parse(t, row[2])
		noIdx := parse(t, row[3])
		if noKV >= full {
			t.Fatalf("Lvalue=%s: removing key-value separation should hurt (%v vs %v)", row[0], noKV, full)
		}
		if noIdx > full*1.01 {
			t.Fatalf("Lvalue=%s: removing index separation should not help", row[0])
		}
	}
}

func TestNearStorageNeverRegresses(t *testing.T) {
	r := NearStorage(Quick)
	for _, row := range r.Rows {
		if parse(t, row[4]) < 0.99 {
			t.Fatalf("near-storage regressed at %s GB: %s", row[0], row[4])
		}
	}
}

func TestScaleBytesFloor(t *testing.T) {
	if Scale(0.0001).bytes(1<<30) < 1<<20 {
		t.Fatal("scale floor violated")
	}
	if Full.bytes(1<<30) != 1<<30 {
		t.Fatal("full scale must be identity")
	}
}

func TestReportCSV(t *testing.T) {
	r := &Report{ID: "X", Header: []string{"a", "b"}, Rows: [][]string{{"1", `va"l,ue`}}}
	csv := r.CSV()
	if !strings.Contains(csv, "X,a,b\n") {
		t.Fatalf("missing header line:\n%s", csv)
	}
	if !strings.Contains(csv, `"va""l,ue"`) {
		t.Fatalf("quoting broken:\n%s", csv)
	}
}

func TestStageUtilizationShape(t *testing.T) {
	r := StageUtilization(Quick, core.DefaultConfig())
	if len(r.Rows) != len(ValueLengths) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// At the shortest values the comparer dominates; at the longest the
	// decoder does (paper §V-D1 crossover).
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if parse(t, first[2]) < parse(t, first[1]) {
		t.Fatalf("at Lvalue=64 comparer (%s%%) should dominate decoder (%s%%)", first[2], first[1])
	}
	if parse(t, last[1]) < parse(t, last[2]) {
		t.Fatalf("at Lvalue=2048 decoder (%s%%) should dominate comparer (%s%%)", last[1], last[2])
	}
	if last[5] != "decoder" || first[5] != "comparer" {
		t.Fatalf("bottleneck labels wrong: %v / %v", first[5], last[5])
	}
}

func TestTieredSimShape(t *testing.T) {
	r := TieredSim(Quick)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byScheme := map[string][]string{}
	for _, row := range r.Rows {
		byScheme[row[0]] = row
	}
	// The 2-input engine must show fallbacks on tiered merges; the
	// 9-input engine must keep jobs in hardware.
	if parse(t, byScheme["tiered-2in"][5]) == 0 {
		t.Fatal("tiered-2in shows no software fallbacks")
	}
	if parse(t, byScheme["tiered-9in"][4]) == 0 {
		t.Fatal("tiered-9in ran nothing in hardware")
	}
	// Tiered WA undercuts leveled WA on the CPU backend.
	if parse(t, byScheme["tiered"][3]) >= parse(t, byScheme["leveled"][3]) {
		t.Fatal("tiered write amplification should undercut leveled")
	}
}

func TestScheduleAblationShape(t *testing.T) {
	r := ScheduleAblation(Quick)
	for _, row := range r.Rows {
		// Overlapping flushes with long software merges must help.
		if parse(t, row[3]) < 1.05 {
			t.Fatalf("Lvalue=%s: CPU overlap benefit %s too small", row[0], row[3])
		}
	}
}
