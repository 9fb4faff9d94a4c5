// Ycsbzipf runs a YCSB-A style mixed workload (50% zipfian reads, 50%
// updates) plus range scans against the store with the FCAE backend —
// the access pattern of paper §VII-D — entirely through the public API.
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"time"

	"fcae"
	"fcae/internal/workload"
)

const (
	records = 50_000
	ops     = 100_000
)

func main() {
	dir, err := os.MkdirTemp("", "fcae-ycsbzipf-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	engine := fcae.MustNewEngineExecutor(fcae.MultiInputEngineConfig())
	db, err := fcae.Open(dir, fcae.Options{
		DispatchConfig: fcae.DispatchConfig{Devices: []fcae.CompactionExecutor{engine}},
		MemTableBytes:  2 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	keys := workload.NewKeyGen(16)
	values := workload.NewValueGen(1024, 0.5, 3)

	// Load phase.
	loadStart := time.Now()
	for i := uint64(0); i < records; i++ {
		if err := db.Put(keys.Key(i), values.Value()); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("loaded %d records in %v\n", records, time.Since(loadStart).Round(time.Millisecond))

	// Mixed phase: 50/50 zipfian reads and updates.
	zipf := workload.NewZipfian(records, 11)
	mix := workload.NewMix(0.5, 0.5, 0, 0, 0, 13)
	var reads, writes int
	mixStart := time.Now()
	for i := 0; i < ops; i++ {
		k := keys.Key(zipf.Next())
		if mix.Next() == workload.OpRead {
			if _, err := db.Get(k); err != nil && err != fcae.ErrNotFound {
				log.Fatal(err)
			}
			reads++
		} else {
			if err := db.Put(k, values.Value()); err != nil {
				log.Fatal(err)
			}
			writes++
		}
	}
	mixElapsed := time.Since(mixStart)
	fmt.Printf("workload A: %d reads + %d writes at %.0f ops/s\n",
		reads, writes, float64(ops)/mixElapsed.Seconds())

	// Range scans (YCSB-E style).
	scanStart := time.Now()
	const scans, scanLen = 500, 50
	entries := 0
	for s := 0; s < scans; s++ {
		it, err := db.NewIterator()
		if err != nil {
			log.Fatal(err)
		}
		for ok, n := it.Seek(keys.Key(zipf.Next())), 0; ok && n < scanLen; ok, n = it.Next(), n+1 {
			entries++
		}
		if err := errors.Join(it.Error(), it.Close()); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("scans: %d x %d entries at %.0f scans/s (%d entries)\n",
		scans, scanLen, float64(scans)/time.Since(scanStart).Seconds(), entries)

	st := db.Stats()
	fmt.Printf("engine compactions: %d (kernel %v, PCIe %v)\n",
		st.HWCompactions, st.KernelTime.Round(time.Microsecond), st.TransferTime.Round(time.Microsecond))
}
