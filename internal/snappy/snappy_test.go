package snappy

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte) {
	t.Helper()
	enc := Encode(nil, src)
	got, err := Decode(nil, enc)
	if err != nil {
		t.Fatalf("Decode after Encode(%d bytes): %v", len(src), err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: %d bytes in, %d out", len(src), len(got))
	}
}

func TestRoundTripEmpty(t *testing.T) { roundTrip(t, nil) }

func TestRoundTripShort(t *testing.T) {
	t.Parallel()
	roundTrip(t, []byte("a"))
	roundTrip(t, []byte("hello world"))
}

func TestRoundTripRepetitive(t *testing.T) {
	t.Parallel()
	src := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 500))
	enc := Encode(nil, src)
	if len(enc) >= len(src)/4 {
		t.Errorf("repetitive text compressed to %d of %d bytes; expected strong compression", len(enc), len(src))
	}
	roundTrip(t, src)
}

func TestRoundTripIncompressible(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	src := make([]byte, 100000)
	rng.Read(src)
	enc := Encode(nil, src)
	if len(enc) > MaxEncodedLen(len(src)) {
		t.Fatalf("encoded %d bytes exceeds MaxEncodedLen %d", len(enc), MaxEncodedLen(len(src)))
	}
	roundTrip(t, src)
}

func TestRoundTripAllByteValues(t *testing.T) {
	t.Parallel()
	src := make([]byte, 256*7)
	for i := range src {
		src[i] = byte(i)
	}
	roundTrip(t, src)
}

func TestRoundTripLongRuns(t *testing.T) {
	t.Parallel()
	// Long runs exercise the 64-byte copy loop and overlapping copies.
	roundTrip(t, bytes.Repeat([]byte{0xaa}, 1<<16))
	roundTrip(t, bytes.Repeat([]byte("ab"), 40000))
}

func TestRoundTripMultiBlock(t *testing.T) {
	t.Parallel()
	// Inputs above 64 KiB are split into multiple encoded blocks.
	rng := rand.New(rand.NewSource(5))
	src := make([]byte, 3*65536+17)
	for i := range src {
		if rng.Intn(4) == 0 {
			src[i] = byte(rng.Intn(256))
		} else {
			src[i] = byte(i % 31)
		}
	}
	roundTrip(t, src)
}

func TestQuickRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(src []byte) bool {
		enc := Encode(nil, src)
		got, err := Decode(nil, enc)
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTripStructured(t *testing.T) {
	t.Parallel()
	// Structured inputs with repeats exercise the copy paths more than
	// quick's random bytes.
	for _, src := range structuredInputs(300) {
		roundTrip(t, src)
	}
}

func TestDecodedLen(t *testing.T) {
	t.Parallel()
	src := []byte("some text worth compressing, some text worth compressing")
	enc := Encode(nil, src)
	n, err := DecodedLen(enc)
	if err != nil || n != len(src) {
		t.Fatalf("DecodedLen = %d, %v; want %d", n, err, len(src))
	}
}

func TestDecodeCorruptInputs(t *testing.T) {
	t.Parallel()
	cases := [][]byte{
		{},                       // no preamble
		{0x80},                   // truncated varint
		{0x03, 0x0c, 'a'},        // literal longer than remaining input
		{0x02, 0x01, 0x01},       // copy with offset 257 > produced bytes... offset encoding
		{0x05, 0xf0, 0xff},       // literal length overruns
		{0x04, 0x0d, 0x01, 0x00}, // copy before any output
		{0x01, 0x00, 'a', 'b'},   // trailing garbage after full output
	}
	for i, c := range cases {
		if _, err := Decode(nil, c); err == nil {
			t.Errorf("case %d: Decode accepted corrupt input %x", i, c)
		}
	}
}

func TestDecodeRejectsHugeLength(t *testing.T) {
	t.Parallel()
	// Preamble claiming 2^40 bytes must not allocate.
	pre := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	if _, err := Decode(nil, pre); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestMaxEncodedLen(t *testing.T) {
	t.Parallel()
	if MaxEncodedLen(-1) != -1 {
		t.Error("negative length must return -1")
	}
	if MaxEncodedLen(0) <= 0 {
		t.Error("zero length still needs preamble space")
	}
}

func TestEncodeReusesDst(t *testing.T) {
	t.Parallel()
	src := []byte("reuse me, reuse me, reuse me")
	dst := make([]byte, 0, MaxEncodedLen(len(src)))
	enc := Encode(dst, src)
	if &enc[0] != &dst[:1][0] {
		t.Error("Encode should reuse a sufficiently large dst")
	}
}

// benchBlocks are the 4 KiB inputs the codec benchmarks run on. "table"
// is shaped like a data block of the repo benchmark's tables: 16-byte
// keys under restart-point prefix compression, each followed by a value
// that is half random bytes and half filler repeating them. "repeat" is
// the best case (one 24-byte phrase), "random" the worst (no matches).
func benchBlocks() []struct {
	name string
	data []byte
} {
	rng := rand.New(rand.NewSource(7))
	var table []byte
	for i := 0; len(table) < 4096; i++ {
		shared := 12
		if i%16 == 0 {
			shared = 0 // restart point: the key is stored whole
		}
		key := fmt.Sprintf("%016d", 4_000_000+i*4)
		table = append(table, byte(shared), byte(24-shared), 0xec, 0x01) // entry header
		table = append(table, key[shared:]...)
		table = append(table, 1, 0, 0, 0, 0, 0, 0, byte(i)) // trailer
		for v := 0; v < 236; v += 100 {
			half := make([]byte, 50)
			for j := range half {
				half[j] = byte(' ' + rng.Intn(95))
			}
			table = append(table, half...)
			table = append(table, half...)
		}
	}
	random := make([]byte, 4096)
	rng.Read(random)
	return []struct {
		name string
		data []byte
	}{
		{"repeat", bytes.Repeat([]byte("key-000001value-padding-"), 4096/24)},
		{"table", table[:4096]},
		{"random", random},
	}
}

func BenchmarkEncode4KBlock(b *testing.B) {
	for _, blk := range benchBlocks() {
		b.Run(blk.name, func(b *testing.B) {
			b.SetBytes(int64(len(blk.data)))
			var e Encoder
			var dst []byte
			for i := 0; i < b.N; i++ {
				dst = e.Encode(dst[:0], blk.data)
			}
			b.ReportMetric(float64(len(dst))/float64(len(blk.data)), "ratio")
		})
	}
}

func BenchmarkDecode4KBlock(b *testing.B) {
	for _, blk := range benchBlocks() {
		b.Run(blk.name, func(b *testing.B) {
			enc := Encode(nil, blk.data)
			b.SetBytes(int64(len(blk.data)))
			var dst []byte
			var err error
			for i := 0; i < b.N; i++ {
				dst, err = Decode(dst, enc)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
