package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"fcae/internal/compaction"
	"fcae/internal/keys"
	"fcae/internal/snappy"
	"fcae/internal/sstable"
)

// oneBlockTables returns one-data-block tables holding the same 40
// entries: one intact, the others each damaged in a different way. The
// damaged payloads are sealed by the Assembler, so all but the flipped
// byte carry a valid checksum and only decoding can catch them.
func oneBlockTables(t *testing.T) map[string][]byte {
	t.Helper()
	const n = 40
	bw := sstable.NewBlockWriter(0)
	var first, last []byte
	for i := 0; i < n; i++ {
		last = keys.MakeInternal(nil, []byte(fmt.Sprintf("key%04d", i)), uint64(i+1), keys.KindSet)
		if first == nil {
			first = last
		}
		bw.Add(last, bytes.Repeat([]byte("v"), 64))
	}
	contents := bw.Finish()
	packed := snappy.Encode(nil, contents)
	assemble := func(ctype sstable.Compression, payload []byte) []byte {
		var buf bytes.Buffer
		a := sstable.NewAssembler(&buf, sstable.Options{})
		if err := a.AddRawBlock(last, byte(ctype), payload, n); err != nil {
			t.Fatal(err)
		}
		a.SetBounds(first, last)
		if _, err := a.Finish(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	flipped := assemble(sstable.SnappyCompression, packed)
	flipped[len(packed)/2] ^= 0x01 // the data block starts at offset 0
	return map[string][]byte{
		"intact":                   assemble(sstable.SnappyCompression, packed),
		"flipped payload byte":     flipped,
		"type byte 7":              assemble(7, contents),
		"truncated snappy payload": assemble(sstable.SnappyCompression, packed[:len(packed)-3]),
	}
}

// TestDamagedBlockEveryConsumer walks every path that reads a data block
// over each kind of damage: all of them must report sstable.ErrCorrupt
// (so the store's one corruption class), none may panic or accept the
// block, and all must read the intact table.
func TestDamagedBlockEveryConsumer(t *testing.T) {
	job := func(data []byte) *compaction.Job {
		return defaultJob([]compaction.Table{{Num: 1, Size: int64(len(data)), Data: memReaderAt(data)}})
	}
	consumers := []struct {
		name string
		read func(r *sstable.Reader, data []byte) error
	}{
		{"Reader.Get", func(r *sstable.Reader, _ []byte) error {
			_, _, _, err := r.Get([]byte("key0000"), keys.MaxSeq)
			return err
		}},
		{"Iterator", func(r *sstable.Reader, _ []byte) error {
			it := r.NewIterator()
			for it.SeekToFirst(); it.Valid(); it.Next() {
			}
			return it.Error()
		}},
		{"BlockScanner", func(r *sstable.Reader, _ []byte) error {
			var sc sstable.BlockScanner
			var scratch []byte
			sc.Reset(r)
			for {
				b, ok, err := sc.NextRaw()
				if !ok {
					return err
				}
				if _, err := sstable.DecodeBlock(&scratch, b.CType, b.Payload); err != nil {
					return err
				}
			}
		}},
		{"VisitRawBlocks", func(r *sstable.Reader, _ []byte) error {
			var scratch []byte
			return r.VisitRawBlocks(func(b sstable.RawBlock) error {
				_, err := sstable.DecodeBlock(&scratch, b.CType, b.Payload)
				return err
			})
		}},
		{"Layout", func(r *sstable.Reader, _ []byte) error {
			_, err := r.Layout()
			return err
		}},
		{"compaction.CPU", func(_ *sstable.Reader, data []byte) error {
			_, err := compaction.CPU{}.Compact(job(data), newMemEnv())
			return err
		}},
		{"core.Executor", func(_ *sstable.Reader, data []byte) error {
			fx, err := NewExecutor(DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			_, err = fx.Compact(job(data), newMemEnv())
			return err
		}},
	}
	for damage, data := range oneBlockTables(t) {
		for _, c := range consumers {
			t.Run(damage+"/"+c.name, func(t *testing.T) {
				r, err := sstable.NewReader(memReaderAt(data), int64(len(data)), sstable.Options{}, nil, 1)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				err = c.read(r, data)
				if damage == "intact" {
					if err != nil {
						t.Fatalf("intact table: %v", err)
					}
				} else if !errors.Is(err, sstable.ErrCorrupt) {
					t.Fatalf("got %v, want an error wrapping sstable.ErrCorrupt", err)
				}
			})
		}
	}
}
