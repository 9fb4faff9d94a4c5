// Tuning walks the engine configuration space the way §VII-C does: sweep
// (N, W_in, V), estimate chip resources with the Table VII model, discard
// configurations that overflow the KCU1500, and rank the survivors by
// compaction speed for a target workload: the simulated engine's own, on
// a merge of N equal, randomly interleaved runs (EngineConfig.MergeRun). It
// reproduces the paper's conclusion that the 9-input engine must shrink
// to W_in=8, V=8.
package main

import (
	"fmt"
	"log"
	"sort"

	"fcae"
)

type candidate struct {
	cfg   fcae.EngineConfig
	util  fcae.EngineUtilization
	speed float64
}

func main() {
	const keyLen, valueLen = 16, 512 // workload: 16 B user keys + 512 B values

	fmt.Printf("workload: %dB keys + %dB values; chip: KCU1500\n\n", keyLen, valueLen)
	var fits, overflows []candidate
	for _, n := range []int{2, 4, 9} {
		for _, win := range []int{8, 16, 64} {
			for _, v := range []int{8, 16, 32, 64} {
				if v > win {
					continue
				}
				cfg := fcae.DefaultEngineConfig()
				cfg.N, cfg.WIn, cfg.V = n, win, v
				// Speed: internal key and value bytes over kernel time.
				st, err := cfg.MergeRun(n, keyLen, valueLen, 0)
				if err != nil {
					log.Fatal(err)
				}
				c := candidate{cfg: cfg, util: cfg.Resources(),
					speed: float64(st.PairsIn*(keyLen+8+valueLen)) / st.KernelTime().Seconds() / 1e6}
				if cfg.Fits() {
					fits = append(fits, c)
				} else {
					overflows = append(overflows, c)
				}
			}
		}
	}

	sort.Slice(fits, func(i, j int) bool {
		if fits[i].cfg.N != fits[j].cfg.N {
			return fits[i].cfg.N > fits[j].cfg.N // more inputs covers more jobs
		}
		return fits[i].speed > fits[j].speed
	})

	fmt.Println("configurations that fit the chip (best first):")
	fmt.Println("  N  WIn   V    LUT%   speed(MB/s)")
	for _, c := range fits {
		fmt.Printf("  %d  %3d  %2d   %5.1f   %8.1f\n",
			c.cfg.N, c.cfg.WIn, c.cfg.V, c.util.LUT, c.speed)
	}
	fmt.Printf("\n%d configurations overflow the chip, e.g.:\n", len(overflows))
	for i, c := range overflows {
		if i == 3 {
			break
		}
		fmt.Printf("  N=%d WIn=%d V=%d -> %.0f%% LUT\n", c.cfg.N, c.cfg.WIn, c.cfg.V, c.util.LUT)
	}

	best := fits[0]
	fmt.Printf("\nchosen: N=%d WIn=%d V=%d (paper §VII-C picks N=9, WIn=8, V=8)\n",
		best.cfg.N, best.cfg.WIn, best.cfg.V)

	// MaxFittingV answers the same question directly for a given (N, WIn).
	probe := fcae.DefaultEngineConfig()
	probe.N, probe.WIn = 9, 8
	fmt.Printf("MaxFittingV(N=9, WIn=8) = %d\n", probe.MaxFittingV())
}
