package sstable

import (
	"bytes"
	"fmt"
	"testing"

	"fcae/internal/bloom"
	"fcae/internal/keys"
)

// TestFilterBlockMatchesBloomAppend: the writer keeps only a 4-byte hash
// per key, and the filter block it builds from them must be, byte for
// byte, what bloom.Filter.Append builds from the keys themselves — for
// the table Writer and for the engine-side Assembler, at several
// bits-per-key and key counts (one key exercises the 64-bit floor).
func TestFilterBlockMatchesBloomAppend(t *testing.T) {
	t.Parallel()
	for _, bits := range []int{1, 10, 16} {
		for _, n := range []int{1, 7, 1000} {
			var users [][]byte
			for i := 0; i < n; i++ {
				users = append(users, []byte(fmt.Sprintf("user-%d-%06d", bits, i*7)))
			}
			want := bloom.New(bits).Append(nil, users)
			opts := Options{FilterBitsPerKey: bits}

			var wbuf bytes.Buffer
			w := NewWriter(&wbuf, opts)
			for i, u := range users {
				if err := w.Add(keys.MakeInternal(nil, u, uint64(i+1), keys.KindSet), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := w.Finish(); err != nil {
				t.Fatal(err)
			}

			var abuf bytes.Buffer
			a := NewAssembler(&abuf, opts)
			bw := NewBlockWriter(0)
			var last []byte
			var hashes []uint32
			for i, u := range users {
				last = keys.MakeInternal(last[:0], u, uint64(i+1), keys.KindSet)
				bw.Add(last, []byte("v"))
				hashes = append(hashes, bloom.Hash(u))
			}
			block := bw.Finish()
			if err := a.AddBlock(byte(NoCompression), block, PayloadSum(block), n, hashes); err != nil {
				t.Fatal(err)
			}
			a.Index(last)
			if _, err := a.Finish(); err != nil {
				t.Fatal(err)
			}

			for name, file := range map[string][]byte{"Writer": wbuf.Bytes(), "Assembler": abuf.Bytes()} {
				r, err := NewReader(memFile(file), int64(len(file)), Options{}, nil, 1)
				if err != nil {
					t.Fatalf("%s, %d bits, %d keys: %v", name, bits, n, err)
				}
				if !bytes.Equal(r.filter, want) {
					t.Errorf("%s, %d bits, %d keys: filter block differs from bloom.Filter.Append over the same keys", name, bits, n)
				}
			}
		}
	}
}
