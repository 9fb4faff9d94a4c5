package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"
)

// TestModelCheck drives the store with random operations — puts, deletes,
// batches, gets, scans, flushes, manual compactions and full reopens —
// and checks every observation against an in-memory model map. It runs
// once per backend.
func TestModelCheck(t *testing.T) {
	backends := map[string]func() Options{
		"cpu": smallOpts,
		"fcae": func() Options {
			o := smallOpts()
			o.DispatchConfig.Devices = newDeviceChannels(t, 1)
			return o
		},
	}
	for name, mkOpts := range backends {
		t.Run(name, func(t *testing.T) {
			runModelCheck(t, mkOpts, 4000, 99)
		})
	}
}

func runModelCheck(t *testing.T, mkOpts func() Options, steps int, seed int64) {
	dir := t.TempDir()
	opts := mkOpts()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()

	rng := rand.New(rand.NewSource(seed))
	model := map[string]string{}
	key := func() []byte { return []byte(fmt.Sprintf("key%05d", rng.Intn(800))) }
	value := func() []byte {
		v := make([]byte, 1+rng.Intn(120))
		rng.Read(v)
		return v
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 40: // put
			k, v := key(), value()
			if err := db.Put(k, v); err != nil {
				t.Fatalf("step %d put: %v", step, err)
			}
			model[string(k)] = string(v)

		case op < 50: // delete
			k := key()
			if err := db.Delete(k); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			delete(model, string(k))

		case op < 55: // batch
			var b Batch
			touched := map[string]*string{}
			for i := 0; i < 1+rng.Intn(10); i++ {
				k := key()
				if rng.Intn(4) == 0 {
					b.Delete(k)
					touched[string(k)] = nil
				} else {
					v := value()
					b.Put(k, v)
					s := string(v)
					touched[string(k)] = &s
				}
			}
			if err := db.Write(&b); err != nil {
				t.Fatalf("step %d batch: %v", step, err)
			}
			for k, v := range touched {
				if v == nil {
					delete(model, k)
				} else {
					model[k] = *v
				}
			}

		case op < 85: // get
			k := key()
			got, err := db.Get(k)
			want, ok := model[string(k)]
			switch {
			case err == ErrNotFound && ok:
				t.Fatalf("step %d: %q missing, model has %d bytes", step, k, len(want))
			case err == nil && !ok:
				t.Fatalf("step %d: %q returned %d bytes, model says deleted", step, k, len(got))
			case err == nil && string(got) != want:
				t.Fatalf("step %d: %q value mismatch", step, k)
			case err != nil && err != ErrNotFound:
				t.Fatalf("step %d get: %v", step, err)
			}

		case op < 92: // short scan
			start := key()
			it, err := db.NewIterator()
			if err != nil {
				t.Fatalf("step %d iterator: %v", step, err)
			}
			var got []string
			for ok := it.Seek(start); ok && len(got) < 10; ok = it.Next() {
				got = append(got, string(it.Key())+"="+string(it.Value()))
			}
			if err := it.Error(); err != nil {
				t.Fatalf("step %d scan: %v", step, err)
			}
			it.Close()
			var keys []string
			for k := range model {
				if k >= string(start) {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			if len(keys) > 10 {
				keys = keys[:10]
			}
			if len(got) != len(keys) {
				t.Fatalf("step %d scan: %d results, model %d", step, len(got), len(keys))
			}
			for i := range keys {
				if got[i] != keys[i]+"="+model[keys[i]] {
					t.Fatalf("step %d scan position %d: %q vs model %q", step, i, got[i], keys[i])
				}
			}

		case op < 95: // flush
			if err := db.Flush(); err != nil {
				t.Fatalf("step %d flush: %v", step, err)
			}

		case op < 97: // manual compaction
			if err := db.CompactLevel(rng.Intn(3)); err != nil {
				t.Fatalf("step %d compact: %v", step, err)
			}

		default: // reopen
			if err := db.Close(); err != nil {
				t.Fatalf("step %d close: %v", step, err)
			}
			db, err = Open(dir, opts)
			if err != nil {
				t.Fatalf("step %d reopen: %v", step, err)
			}
		}
	}

	// Final full verification: scan equals model.
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	got := map[string]string{}
	for ok := it.First(); ok; ok = it.Next() {
		got[string(it.Key())] = string(it.Value())
	}
	if len(got) != len(model) {
		t.Fatalf("final scan has %d keys, model %d", len(got), len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("final mismatch at %q", k)
		}
	}
}

// TestCorruptTableDetected flips bytes in a live table file; reads must
// fail with a checksum error, never return wrong data.
func TestCorruptTableDetected(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{DisableCompression: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("sentinel-value-"), 10)
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("key%04d", i)), val)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// Corrupt every table file's data region.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if kind, _ := parseFileName(e.Name()); kind != kindTable {
			continue
		}
		path := dir + "/" + e.Name()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := 50; off < len(data)/2; off += 97 {
			data[off] ^= 0xff
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Evict cached blocks/readers so reads hit the corrupted bytes.
	db.tables.close()
	db.blockCache.EvictFile(0)

	sawError := false
	for i := 0; i < 200; i++ {
		v, err := db.Get([]byte(fmt.Sprintf("key%04d", i)))
		if err == nil && !bytes.Equal(v, val) {
			t.Fatalf("corruption returned wrong data for key%04d", i)
		}
		if err != nil && err != ErrNotFound {
			sawError = true
		}
	}
	if !sawError {
		t.Fatal("no read reported the corruption")
	}
}
