package bench

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.csv from the current models")

// TestQuickCSVGolden pins every paper-facing number the repo reports:
// testdata/quick.csv is the CSV of every report in Experiments at Quick
// scale, which is what cmd/experiments -scale 0.1 -format csv prints off
// the same list. The models are
// deterministic, so any change to the simulator, the engine model or the
// cost constants moves rows here and shows up as a reviewed diff. After an
// intended change, regenerate with
//
//	go test ./internal/bench -run TestQuickCSVGolden -update
func TestQuickCSVGolden(t *testing.T) {
	const path = "testdata/quick.csv"
	var b strings.Builder
	for _, e := range Experiments {
		for i, r := range e.Run(Quick, 1024) {
			if i >= len(e.IDs) || r.ID != e.IDs[i] {
				t.Errorf("experiment %v yields report %q at %d: -run would not find it", e.IDs, r.ID, i)
			}
			b.WriteString(r.CSV())
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d lines, %s has %d", len(gotLines), path, len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Errorf("the reports moved; if that is intended, rerun with -update and list the moved rows in CHANGES.md")
}
