// Operations demonstrates the store's operational toolkit: consistent
// checkpoints, metadata repair after corruption, properties output, and
// approximate sizes — the pieces a downstream operator relies on.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"fcae"
	"fcae/internal/workload"
)

func main() {
	root, err := os.MkdirTemp("", "fcae-operations-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)
	dir := filepath.Join(root, "db")

	engine := fcae.MustNewEngineExecutor(fcae.MultiInputEngineConfig())
	db, err := fcae.Open(dir, fcae.Options{
		DispatchConfig: fcae.DispatchConfig{Devices: []fcae.CompactionExecutor{engine}},
		MemTableBytes:  1 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}

	keys := workload.NewKeyGen(16)
	values := workload.NewValueGen(256, 0.5, 1)
	seq := workload.NewUniform(30_000, 7) // overlapping ranges: real merges
	for i := 0; i < 30_000; i++ {
		if err := db.Put(keys.Key(seq.Next()), values.Value()); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.WaitIdle(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("== store shape ==")
	fmt.Print(db.PropertyString())
	// KeyGen reuses its buffer, so bounds passed together must be copied.
	lo := append([]byte(nil), keys.Key(0)...)
	hi := append([]byte(nil), keys.Key(15_000)...)
	fmt.Printf("approximate size of first half: %.1f MiB\n\n",
		float64(db.ApproximateSize(lo, hi))/(1<<20))

	// A sentinel key to verify recovery paths below.
	if err := db.Put([]byte("sentinel"), []byte("intact")); err != nil {
		log.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		log.Fatal(err)
	}

	// Consistent online backup.
	checkpoint := filepath.Join(root, "backup")
	if err := db.Checkpoint(checkpoint); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint written to %s\n", checkpoint)
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}

	// Disaster: the MANIFEST and CURRENT files are destroyed.
	os.Remove(filepath.Join(dir, "CURRENT"))
	matches, _ := filepath.Glob(filepath.Join(dir, "MANIFEST-*"))
	for _, m := range matches {
		os.Remove(m)
	}
	fmt.Println("metadata destroyed; repairing from table files...")
	if err := fcae.Repair(dir, fcae.Options{}); err != nil {
		log.Fatal(err)
	}

	repaired, err := fcae.Open(dir, fcae.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer repaired.Close()
	if v, err := repaired.Get([]byte("sentinel")); err != nil || string(v) != "intact" {
		log.Fatalf("repaired store lost the sentinel: %v", err)
	}
	fmt.Println("repair ok: data readable again")

	// The checkpoint is an independent, openable store.
	backup, err := fcae.Open(checkpoint, fcae.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer backup.Close()
	if v, err := backup.Get([]byte("sentinel")); err != nil || string(v) != "intact" {
		log.Fatalf("backup lost the sentinel: %v", err)
	}
	fmt.Println("backup ok: checkpoint opens and serves reads")
}
