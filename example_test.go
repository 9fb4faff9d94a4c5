package fcae_test

import (
	"fmt"
	"log"
	"os"

	"fcae"
)

// Example shows the minimal open/put/get cycle.
func Example() {
	dir, _ := os.MkdirTemp("", "fcae-example-")
	defer os.RemoveAll(dir)

	db, err := fcae.Open(dir, fcae.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	db.Put([]byte("hello"), []byte("world"))
	v, _ := db.Get([]byte("hello"))
	fmt.Println(string(v))
	// Output: world
}

// ExampleOpen_engine opens a store whose compactions run on the simulated
// FCAE engine (the paper's 9-input configuration).
func ExampleOpen_engine() {
	dir, _ := os.MkdirTemp("", "fcae-example-")
	defer os.RemoveAll(dir)

	cfg := fcae.MultiInputEngineConfig()
	var opts fcae.Options
	opts.DispatchConfig.Devices = []fcae.CompactionExecutor{fcae.MustNewEngineExecutor(cfg)}
	db, err := fcae.Open(dir, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	fmt.Printf("engine lanes: %d, fits chip: %v\n", cfg.N, cfg.Fits())
	// Output: engine lanes: 9, fits chip: true
}

// ExampleDB_NewIterator scans a key range in both directions.
func ExampleDB_NewIterator() {
	dir, _ := os.MkdirTemp("", "fcae-example-")
	defer os.RemoveAll(dir)
	db, _ := fcae.Open(dir, fcae.Options{})
	defer db.Close()

	for _, k := range []string{"b", "a", "c"} {
		db.Put([]byte(k), []byte("v-"+k))
	}
	it, _ := db.NewIterator()
	defer it.Close()
	for ok := it.First(); ok; ok = it.Next() {
		fmt.Printf("%s ", it.Key())
	}
	for ok := it.Last(); ok; ok = it.Prev() {
		fmt.Printf("%s ", it.Key())
	}
	fmt.Println()
	// Output: a b c c b a
}

// ExampleBatch commits several writes atomically.
func ExampleBatch() {
	dir, _ := os.MkdirTemp("", "fcae-example-")
	defer os.RemoveAll(dir)
	db, _ := fcae.Open(dir, fcae.Options{})
	defer db.Close()

	var b fcae.Batch
	b.Put([]byte("x"), []byte("1"))
	b.Put([]byte("y"), []byte("2"))
	b.Delete([]byte("x"))
	db.Write(&b)

	_, errX := db.Get([]byte("x"))
	y, _ := db.Get([]byte("y"))
	fmt.Println(errX == fcae.ErrNotFound, string(y))
	// Output: true 2
}

// flushLogger counts flush events. Embedding NoopListener keeps it
// compiling as new event kinds are added.
type flushLogger struct {
	fcae.NoopListener
	begins, ends, tables int
}

func (f *flushLogger) FlushBegin(fcae.FlushBeginEvent) { f.begins++ }
func (f *flushLogger) FlushEnd(fcae.FlushEndEvent)     { f.ends++ }
func (f *flushLogger) TableCreated(fcae.TableCreatedEvent) {
	f.tables++
}

// ExampleDB_listener observes a flush through an EventListener and reads
// the matching counter from the metrics registry. Events are delivered
// outside the store's locks; Flush returning guarantees the listener has
// seen the flush's events.
func ExampleDB_listener() {
	dir, _ := os.MkdirTemp("", "fcae-example-")
	defer os.RemoveAll(dir)

	logger := &flushLogger{}
	db, err := fcae.Open(dir, fcae.Options{EventListener: logger})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	db.Put([]byte("hello"), []byte("world"))
	db.Flush()

	m := db.Metrics()
	fmt.Printf("flush begin/end: %d/%d, tables created: %d, flush_count: %d\n",
		logger.begins, logger.ends, logger.tables, m.Counters["flush_count"])
	// Output: flush begin/end: 1/1, tables created: 1, flush_count: 1
}

// ExampleEngineConfig_Resources estimates chip utilization for a
// configuration, as in the paper's Table VII.
func ExampleEngineConfig_Resources() {
	cfg := fcae.MultiInputEngineConfig() // N=9, WIn=8, V=8
	u := cfg.Resources()
	fmt.Printf("BRAM %.0f%% FF %.0f%% LUT %.0f%%\n", u.BRAM, u.FF, u.LUT)
	// Output: BRAM 25% FF 14% LUT 85%
}
