package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"fcae/internal/crc"
)

func testCRC(t byte, payload []byte) uint32 {
	return crc.Extend(crc.Value([]byte{t}), payload)
}

func roundTrip(t *testing.T, records [][]byte) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, testCRC)
	for _, r := range records {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(bytes.NewReader(buf.Bytes()), testCRC)
	for i, want := range records {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestRoundTripSmallRecords(t *testing.T) {
	t.Parallel()
	roundTrip(t, [][]byte{[]byte("one"), []byte("two"), {}, []byte("four")})
}

func TestRoundTripFragmented(t *testing.T) {
	t.Parallel()
	// Records larger than one block must fragment and reassemble.
	big := bytes.Repeat([]byte("x"), BlockSize*3+123)
	roundTrip(t, [][]byte{[]byte("pre"), big, []byte("post")})
}

func TestRoundTripBlockBoundary(t *testing.T) {
	t.Parallel()
	// A record that leaves less than a header of trailer space forces
	// zero padding, which the reader must skip.
	first := bytes.Repeat([]byte("a"), BlockSize-headerSize-3)
	roundTrip(t, [][]byte{first, []byte("second")})
}

func TestRoundTripExactBlockFill(t *testing.T) {
	t.Parallel()
	first := bytes.Repeat([]byte("a"), BlockSize-headerSize)
	roundTrip(t, [][]byte{first, []byte("second")})
}

func TestRoundTripManyRandomRecords(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	var records [][]byte
	for i := 0; i < 200; i++ {
		r := make([]byte, rng.Intn(5000))
		rng.Read(r)
		records = append(records, r)
	}
	roundTrip(t, records)
}

func TestReaderDetectsCorruption(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	w := NewWriter(&buf, testCRC)
	if err := w.Append([]byte("a clean record")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[headerSize+2] ^= 0xff // flip a payload byte
	r := NewReader(bytes.NewReader(data), testCRC)
	if _, err := r.Next(); err == nil {
		t.Fatal("corrupted payload passed checksum")
	}
}

func TestReaderDetectsTornWrite(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	w := NewWriter(&buf, testCRC)
	big := bytes.Repeat([]byte("y"), BlockSize*2)
	if err := w.Append(big); err != nil {
		t.Fatal(err)
	}
	// Drop the final fragment: simulates a crash mid-write.
	data := buf.Bytes()[:BlockSize+100]
	r := NewReader(bytes.NewReader(data), testCRC)
	if _, err := r.Next(); err == nil {
		t.Fatal("torn record should not be returned")
	}
}

func TestReaderStopsAtTruncatedTail(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	w := NewWriter(&buf, testCRC)
	for i := 0; i < 5; i++ {
		if err := w.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Truncate in the middle of record 3's header.
	data := buf.Bytes()[:3*(headerSize+len("record-0"))+4]
	r := NewReader(bytes.NewReader(data), testCRC)
	n := 0
	for {
		_, err := r.Next()
		if err != nil {
			break
		}
		n++
	}
	if n != 3 {
		t.Fatalf("recovered %d records, want 3", n)
	}
}

// TestDamageIsTail: damage is a tail only when no intact record follows
// it — a cut-short log, a fragment chain missing its end, a bad last
// record — never a bad byte with a whole record after it, in its own
// block or a later one.
func TestDamageIsTail(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	w := NewWriter(&buf, testCRC)
	for i := 0; i < 100; i++ {
		if err := w.Append(bytes.Repeat([]byte{byte(i)}, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	log := buf.Bytes() // 100 records of 1007 bytes: four blocks
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
		tail   bool
	}{
		{"cut mid-record", func(b []byte) []byte { return b[:len(b)-500] }, true},
		{"cut inside a record spanning blocks", func(b []byte) []byte { return b[:BlockSize+10] }, true},
		{"flip in the last record", func(b []byte) []byte { b[len(b)-300] ^= 1; return b }, true},
		{"flip with a record after it in the block", func(b []byte) []byte { b[len(b)-1500] ^= 1; return b }, false},
		{"flip in the first block", func(b []byte) []byte { b[5000] ^= 1; return b }, false},
		{"flip in a fragment header", func(b []byte) []byte { b[2*BlockSize+2] ^= 1; return b }, false},
	} {
		r := NewReader(bytes.NewReader(tc.damage(bytes.Clone(log))), testCRC)
		var err error
		for err == nil {
			_, err = r.Next()
		}
		if err != ErrCorrupt {
			t.Fatalf("%s: Next = %v, want ErrCorrupt", tc.name, err)
		}
		if tail, err := r.DamageIsTail(); err != nil || tail != tc.tail {
			t.Errorf("%s: DamageIsTail = %v, %v; want %v", tc.name, tail, err, tc.tail)
		}
	}
}

func TestWriterSizeTracksBytes(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	w := NewWriter(&buf, testCRC)
	if err := w.Append([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if w.Size() != int64(buf.Len()) {
		t.Fatalf("Size = %d, buffer has %d", w.Size(), buf.Len())
	}
}

func BenchmarkAppend(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testCRC)
	record := bytes.Repeat([]byte("payload-"), 64) // 512 bytes
	b.SetBytes(int64(len(record)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf.Len() > 64<<20 {
			buf.Reset()
			w = NewWriter(&buf, testCRC)
		}
		if err := w.Append(record); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplay(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testCRC)
	record := bytes.Repeat([]byte("payload-"), 64)
	for i := 0; i < 10000; i++ {
		w.Append(record)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(bytes.NewReader(buf.Bytes()), testCRC)
		n := 0
		for {
			if _, err := r.Next(); err != nil {
				break
			}
			n++
		}
		if n != 10000 {
			b.Fatalf("replayed %d records", n)
		}
	}
}

// countingWriter records the size of every Write it is handed.
type countingWriter struct {
	bytes.Buffer
	writes []int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// fragmentAtATime lays records out the way the writer did when it handed
// the file every header, payload and padding run in a Write of its own:
// the byte-for-byte reference for what one Write per record must produce.
func fragmentAtATime(records [][]byte) []byte {
	var out []byte
	for _, record := range records {
		for begin := true; ; begin = false {
			leftover := BlockSize - len(out)%BlockSize
			if leftover < headerSize {
				out = append(out, make([]byte, leftover)...)
				leftover = BlockSize
			}
			frag := record[:min(len(record), leftover-headerSize)]
			record = record[len(frag):]
			t := typeMiddle
			switch end := len(record) == 0; {
			case begin && end:
				t = typeFull
			case begin:
				t = typeFirst
			case end:
				t = typeLast
			}
			out = binary.LittleEndian.AppendUint32(out, testCRC(byte(t), frag))
			out = binary.LittleEndian.AppendUint16(out, uint16(len(frag)))
			out = append(append(out, byte(t)), frag...)
			if len(record) == 0 {
				break
			}
		}
	}
	return out
}

// boundaryRecords crosses every kind of block boundary: a record that
// stops 3 bytes short of the first block's end (so the next one starts
// with padding), one spread over more than three blocks, an empty one,
// one that fills its block exactly, one that finds 6 bytes left, and one
// that finds exactly a header's room and so opens with an empty fragment.
func boundaryRecords() [][]byte {
	rng := rand.New(rand.NewSource(26))
	var records [][]byte
	add := func(r []byte) { records = append(records, r) }
	sized := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	room := func() int { return BlockSize - len(fragmentAtATime(records))%BlockSize }
	add(sized(BlockSize - headerSize - 3))
	add([]byte("lands after a 3-byte tail"))
	add(sized(3*BlockSize + 123))
	add(nil)
	add(sized(room() - headerSize))
	add([]byte("starts a block"))
	add(sized(room() - headerSize - 6))
	add([]byte("finds 6 bytes, all padding"))
	add(sized(room() - 2*headerSize))
	add([]byte("opens with an empty fragment"))
	return records
}

// TestAppendIsOneWrite: every logical record reaches the file in exactly
// one Write — fragments, headers and the padding before them included —
// and the file is byte for byte the one a Write per fragment made.
func TestAppendIsOneWrite(t *testing.T) {
	t.Parallel()
	records := boundaryRecords()
	var f countingWriter
	w := NewWriter(&f, testCRC)
	for i, r := range records {
		before := f.Len()
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		if len(f.writes) != i+1 {
			t.Fatalf("record %d (%d bytes) took %d writes, want 1", i, len(r), len(f.writes)-i)
		}
		if w.Size() != int64(f.Len()) || f.writes[i] != f.Len()-before {
			t.Fatalf("record %d: Size %d, file %d, write of %d", i, w.Size(), f.Len(), f.writes[i])
		}
	}
	if f.writes[1] != 3+headerSize+len(records[1]) {
		t.Errorf("the record after a 3-byte tail wrote %d bytes, want its padding, header and payload", f.writes[1])
	}
	if n := f.writes[2] - len(records[2]); n < 4*headerSize {
		t.Errorf("the long record carried %d bytes of headers, want at least four fragments' worth", n)
	}
	if !bytes.Equal(f.Bytes(), fragmentAtATime(records)) {
		t.Error("the file differs from the fragment-at-a-time layout")
	}
	roundTrip(t, records)
}

// shortWriter takes limit more bytes, then fails, keeping the part of the
// failing Write that fit — as a full disk does.
type shortWriter struct {
	limit int
}

var errDiskFull = fmt.Errorf("disk full")

func (w *shortWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errDiskFull
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestAppendFailureDoesNotAdvance: wherever in a record's bytes the file
// gives out — in the padding before it, inside a header or a payload,
// between two fragments — Append returns the error, and Size and the
// block offset stay where the last whole record left them.
func TestAppendFailureDoesNotAdvance(t *testing.T) {
	t.Parallel()
	f := &shortWriter{}
	w := NewWriter(f, testCRC)
	var laid [][]byte // the records appended so far
	for _, step := range []struct {
		record []byte
		probed bool
		layout string
	}{
		{make([]byte, BlockSize-headerSize-3), false, "leaves a 3-byte tail"},
		{[]byte("after the tail"), true, "padding, header, payload"},
		{make([]byte, BlockSize-(headerSize+len("after the tail"))-headerSize-20), false, "leaves 20 bytes"},
		{[]byte("split over two blocks: 13 bytes, then the rest"), true, "two fragments"},
		{nil, true, "an empty record"},
	} {
		before := len(fragmentAtATime(laid))
		laid = append(laid, step.record)
		size := len(fragmentAtATime(laid)) - before
		if step.probed {
			for limit := 0; limit < size; limit++ {
				f.limit = limit
				if err := w.Append(step.record); !errors.Is(err, errDiskFull) {
					t.Fatalf("%s, file fails after %d of %d bytes: Append = %v", step.layout, limit, size, err)
				}
				if w.Size() != int64(before) || w.blockOff != before%BlockSize {
					t.Fatalf("%s, file fails after %d of %d bytes: Size = %d, blockOff = %d; want %d, %d",
						step.layout, limit, size, w.Size(), w.blockOff, before, before%BlockSize)
				}
			}
		}
		f.limit = size
		if err := w.Append(step.record); err != nil {
			t.Fatalf("%s: %v", step.layout, err)
		}
		if w.Size() != int64(before+size) || w.blockOff != (before+size)%BlockSize {
			t.Fatalf("%s: Size = %d, blockOff = %d after a whole record ending at %d", step.layout, w.Size(), w.blockOff, before+size)
		}
	}
}

// TestGatherBufferIsBounded: the buffer a record is laid out in is kept
// for the next record, unless one huge record grew it past the cap.
func TestGatherBufferIsBounded(t *testing.T) {
	t.Parallel()
	w := NewWriter(io.Discard, testCRC)
	if err := w.Append(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	small := cap(w.gather)
	if small == 0 || small > 2000 {
		t.Fatalf("a 1000-byte record left a gather buffer of %d bytes", small)
	}
	if err := w.Append(make([]byte, maxRetainedGather+1)); err != nil {
		t.Fatal(err)
	}
	if cap(w.gather) > maxRetainedGather {
		t.Fatalf("a huge record left %d bytes retained, cap is %d", cap(w.gather), maxRetainedGather)
	}
}
