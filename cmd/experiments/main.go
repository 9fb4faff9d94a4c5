// Command experiments regenerates the paper's tables and figures and
// prints them in the paper's layout.
//
// Usage:
//
//	experiments [-run all|tableV|fig9|tableVI|fig10|fig11|tableVII|fig12|fig13|fig14|tableVIII|fig15|fig16|
//	                  ablation|ablationSchedule|nearStorage|stageUtil|tiered]
//	            [-scale 1.0] [-maxgb 1024] [-format text|csv]
//
// -scale shrinks data sizes for quick runs (0.1 completes in seconds);
// -maxgb bounds the Fig 14 / Table VIII sweep.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"fcae/internal/bench"
)

func main() {
	run := flag.String("run", "all", "experiment to regenerate (comma separated), or 'all'")
	scale := flag.Float64("scale", 1.0, "data-size scale factor (1.0 = paper sizes)")
	maxGB := flag.Float64("maxgb", 1024, "largest Fig 14 data size in GB")
	format := flag.String("format", "text", "output format: text or csv")
	flag.Parse()

	sc := bench.Scale(*scale)
	want := map[string]bool{}
	for _, id := range strings.Split(strings.ToLower(*run), ",") {
		want[strings.TrimSpace(id)] = true
	}
	all := want["all"]

	printed := false
	for _, e := range bench.Experiments {
		if !all && !slices.ContainsFunc(e.IDs, func(id string) bool { return want[strings.ToLower(id)] }) {
			continue
		}
		for _, r := range e.Run(sc, *maxGB) {
			if !all && !want[strings.ToLower(r.ID)] {
				continue
			}
			printed = true
			if *format == "csv" {
				fmt.Print(r.CSV())
			} else {
				fmt.Println(r.String())
			}
		}
	}
	if !printed {
		fmt.Fprintln(os.Stderr, "nothing selected; see -run")
		os.Exit(2)
	}
}
