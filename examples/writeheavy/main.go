// Writeheavy demonstrates the paper's motivating scenario: a
// write-intensive workload whose compactions are offloaded to the FCAE
// engine (paper §I: "compaction ... could significantly reduce the overall
// throughput of the whole system especially for write-intensive
// workloads"). It runs the same load on the CPU baseline and the 9-input
// engine backend and prints the compaction statistics, including the
// engine's modeled kernel and PCIe time.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"fcae"
	"fcae/internal/workload"
)

const (
	numOps    = 200_000
	valueSize = 256
)

func main() {
	fmt.Printf("write-heavy load: %d ops x (16B key + %dB value)\n\n", numOps, valueSize)
	run("cpu baseline", fcae.Options{})

	cfg := fcae.MultiInputEngineConfig() // N=9: covers L0 merges too
	u := cfg.Resources()
	fmt.Printf("engine config: N=%d V=%d WIn=%d (BRAM %.0f%%, FF %.0f%%, LUT %.0f%%)\n",
		cfg.N, cfg.V, cfg.WIn, u.BRAM, u.FF, u.LUT)
	var engine fcae.Options
	engine.DispatchConfig.Devices = []fcae.CompactionExecutor{fcae.MustNewEngineExecutor(cfg)}
	run("fcae engine", engine)
}

func run(label string, opts fcae.Options) {
	dir, err := os.MkdirTemp("", "fcae-writeheavy-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Small thresholds so the run compacts visibly.
	opts.MemTableBytes = 1 << 20
	opts.BaseLevelBytes = 4 << 20
	opts.MaxOutputFileBytes = 1 << 20

	db, err := fcae.Open(dir, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	keys := workload.NewKeyGen(16)
	values := workload.NewValueGen(valueSize, 0.5, 1)
	seq := workload.NewUniform(numOps, 2)

	start := time.Now()
	for i := 0; i < numOps; i++ {
		if err := db.Put(keys.Key(seq.Next()), values.Value()); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.WaitIdle(); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	st := db.Stats()
	fmt.Printf("%s:\n", label)
	fmt.Printf("  wall time          %v (%.0f ops/s)\n", elapsed.Round(time.Millisecond), float64(numOps)/elapsed.Seconds())
	fmt.Printf("  flushes            %d (%.1f MiB)\n", st.Flushes, float64(st.FlushBytes)/(1<<20))
	fmt.Printf("  compactions        %d (engine %d, sw fallback %d, trivial moves %d)\n",
		st.Compactions, st.HWCompactions, st.SWFallbacks, st.TrivialMoves)
	fmt.Printf("  compaction I/O     read %.1f MiB, wrote %.1f MiB\n",
		float64(st.CompactionRead)/(1<<20), float64(st.CompactionWrite)/(1<<20))
	if st.HWCompactions > 0 {
		fmt.Printf("  modeled device     kernel %v, PCIe %v  (what the KCU1500 would spend)\n",
			st.KernelTime.Round(time.Microsecond), st.TransferTime.Round(time.Microsecond))
	}
	fmt.Printf("  write stalls       %v across %d waits\n\n", st.StallTime.Round(time.Millisecond), st.StallWrites)
}
