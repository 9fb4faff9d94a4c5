package snappy

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// checkBothWays holds the codec to the reference in both directions: what
// the new encoder writes the old decoder must read, and the reverse. That
// is the on-disk compatibility promise — tables written before the kernel
// rewrite read after it, and tables written after it read before.
func checkBothWays(t *testing.T, src []byte) {
	t.Helper()
	enc := Encode(nil, src)
	if len(enc) > MaxEncodedLen(len(src)) {
		t.Fatalf("Encode(%d bytes) = %d bytes, over MaxEncodedLen %d", len(src), len(enc), MaxEncodedLen(len(src)))
	}
	if got, err := refDecode(nil, enc); err != nil || !bytes.Equal(got, src) {
		t.Fatalf("reference decoder on new encoder's output (%d bytes in): err=%v, equal=%v", len(src), err, bytes.Equal(got, src))
	}
	if got, err := Decode(nil, enc); err != nil || !bytes.Equal(got, src) {
		t.Fatalf("new decoder on new encoder's output (%d bytes in): err=%v, equal=%v", len(src), err, bytes.Equal(got, src))
	}
	if got, err := Decode(nil, refEncode(nil, src)); err != nil || !bytes.Equal(got, src) {
		t.Fatalf("new decoder on reference encoder's output (%d bytes in): err=%v, equal=%v", len(src), err, bytes.Equal(got, src))
	}
}

func TestDifferentialQuick(t *testing.T) {
	t.Parallel()
	f := func(src []byte) bool {
		checkBothWays(t, src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDifferentialStructured(t *testing.T) {
	t.Parallel()
	for _, src := range structuredInputs(300) {
		checkBothWays(t, src)
	}
	for _, blk := range benchBlocks() {
		checkBothWays(t, blk.data)
		// Speed was not bought with size: on block-shaped input the new
		// encoder's output is no larger than the reference's.
		if n, ref := len(Encode(nil, blk.data)), len(refEncode(nil, blk.data)); n > ref {
			t.Errorf("%s block: Encode wrote %d bytes, the reference encoder %d", blk.name, n, ref)
		}
	}
}

// mixed returns n bytes that are part noise and part earlier content, so
// both element kinds occur at every scale.
func mixed(rng *rand.Rand, n int) []byte {
	out := make([]byte, 0, n+64)
	for len(out) < n {
		run := 1 + rng.Intn(40)
		if len(out) > 8 && rng.Intn(2) == 0 {
			from := rng.Intn(len(out))
			for i := 0; i < run; i++ {
				out = append(out, out[from+i])
			}
		} else {
			for i := 0; i < run; i++ {
				out = append(out, byte(rng.Intn(256)))
			}
		}
	}
	return out[:n]
}

func TestDifferentialBoundaries(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))

	// Lengths around the literal-only cutoff, around the 64 KiB split, and
	// around every hash table size (a block of 2^k bytes gets a 2^k-entry
	// table, one byte more doubles it, up to 2^14).
	lengths := []int{65535, 65536, 65537, 2*65536 + 1}
	for n := 0; n <= minNonLiteralBlockSize+1; n++ {
		lengths = append(lengths, n)
	}
	for k := minTableBits; k <= maxTableBits+1; k++ {
		lengths = append(lengths, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, n := range lengths {
		checkBothWays(t, mixed(rng, n))
		checkBothWays(t, bytes.Repeat([]byte{'x'}, n))
	}

	// One match of every length 4..70 at every offset 1..16 (the lengths
	// cross the 8-bytes-at-a-time extension, the 12-byte copy-1 limit and
	// the 64/68-byte copy splits; the offsets cross the decoder's 8-byte
	// overlap rule), between two noise fields so the match is found.
	for offset := 1; offset <= 16; offset++ {
		for length := 4; length <= 70; length++ {
			src := make([]byte, 40, 40+length+40)
			rng.Read(src)
			for i := 0; i < length; i++ {
				src = append(src, src[len(src)-offset])
			}
			// The match running to the block's last byte...
			checkBothWays(t, src)
			// ...and followed by more noise.
			tail := make([]byte, 40)
			rng.Read(tail)
			checkBothWays(t, append(src, tail...))
		}
	}
}

// structuredInputs is the word-soup generator of TestQuickRoundTripStructured.
func structuredInputs(n int) [][]byte {
	rng := rand.New(rand.NewSource(99))
	words := []string{"alpha", "beta", "gamma", "delta", "zipf", "0000001"}
	var out [][]byte
	for i := 0; i < n; i++ {
		var b bytes.Buffer
		size := rng.Intn(5000)
		for b.Len() < size {
			b.WriteString(words[rng.Intn(len(words))])
		}
		out = append(out, b.Bytes())
	}
	return out
}

// stream assembles a hand-written compressed stream.
type stream []byte

func newStream(decodedLen int) stream {
	return binary.AppendUvarint(nil, uint64(decodedLen))
}

func (s stream) literal(lit string) stream {
	if len(lit) < 1 || len(lit) > 60 {
		panic("test literal out of range")
	}
	return append(append(s, byte(len(lit)-1)<<2|tagLiteral), lit...)
}

// copy2 appends a copy element with a 2-byte offset (length 1..64).
func (s stream) copy2(offset, length int) stream {
	return append(s, byte(length-1)<<2|tagCopy2, byte(offset), byte(offset>>8))
}

// copy1 appends a copy element with an 11-bit offset (length 4..11).
func (s stream) copy1(offset, length int) stream {
	return append(s, byte(offset>>8)<<5|byte(length-4)<<2|tagCopy1, byte(offset))
}

// decodeGuarded decodes into a buffer whose capacity runs 64 bytes past
// the decoded length and reports whether any of those bytes were touched.
// src is clipped so that a read past its end faults instead of seeing
// spare capacity.
func decodeGuarded(src []byte) (out []byte, overran bool, err error) {
	src = append(make([]byte, 0, len(src)), src...)
	n, lenErr := DecodedLen(src)
	if lenErr != nil {
		n = 0
	}
	const guard = 64
	buf := make([]byte, n+guard)
	for i := range buf {
		buf[i] = 0xA5
	}
	out, err = Decode(buf[:0], src)
	for _, b := range buf[n:] {
		if b != 0xA5 {
			overran = true
		}
	}
	return out, overran, err
}

// TestDecodeFastPathsHostile aims a stream at every branch the decoder's
// wide copies added. Valid streams must decode exactly as the reference
// does; invalid ones must return ErrCorrupt; neither may write a byte
// past the decoded length, even into spare capacity.
func TestDecodeFastPathsHostile(t *testing.T) {
	t.Parallel()
	const lit20 = "0123456789abcdefghij"
	cases := []struct {
		name string
		s    stream
		ok   bool
	}{
		// Short matches: an offset below 8 must not take the two-word path.
		{"short match, offset 1", newStream(36).literal(lit20).copy2(1, 16), true},
		{"short match, offset 7", newStream(36).literal(lit20).copy2(7, 16), true},
		{"short match, offset 8", newStream(36).literal(lit20).copy2(8, 16), true},
		{"short match, offset 15", newStream(36).literal(lit20).copy2(15, 16), true},
		{"short match, offset 7, output to spare", newStream(40).literal(lit20).copy1(7, 8).literal("0123456789ab"), true},
		// ...with exactly 16, then fewer than 16, bytes of output left.
		{"short match, 16 bytes of slack", newStream(36).literal(lit20).copy1(9, 4).literal("0123456789ab"), true},
		{"short match, 15 bytes of slack", newStream(35).literal(lit20).copy1(9, 4).literal("0123456789a"), true},
		{"short match filling the output", newStream(24).literal(lit20).copy1(9, 4), true},
		{"short match, 1 byte over", newStream(23).literal(lit20).copy1(9, 4), false},
		{"short match, 12 bytes over", newStream(24).literal(lit20).copy2(9, 16), false},
		// Offsets against what has been produced.
		{"offset == produced", newStream(40).literal(lit20).copy2(20, 20), true},
		{"offset == produced, short", newStream(40).literal(lit20).copy2(20, 8).literal("0123456789ab"), true},
		{"offset > produced", newStream(40).literal(lit20).copy2(21, 20), false},
		{"offset > produced, short", newStream(40).literal(lit20).copy2(21, 8).literal("0123456789ab"), false},
		{"offset 0", newStream(40).literal(lit20).copy2(0, 20), false},
		{"copy before any output", newStream(8).copy2(1, 8), false},
		// Long overlapping matches: the pattern-doubling path.
		{"overlap, offset 1, 64 bytes", newStream(84).literal(lit20).copy2(1, 64), true},
		{"overlap, offset 3, 64 bytes", newStream(84).literal(lit20).copy2(3, 64), true},
		{"overlap, offset 19, 20 bytes", newStream(40).literal(lit20).copy2(19, 20), true},
		{"overlap, 1 byte over", newStream(83).literal(lit20).copy2(3, 64), false},
		// Literals: the 16-byte move needs 16 bytes on both sides.
		{"short literal, input ends with it", newStream(4).literal("abcd"), true},
		{"short literal, 16 bytes of input left", newStream(17).literal("abcd").literal("012345678").copy1(4, 4), true},
		{"short literal, 15 bytes of input left", newStream(16).literal("abcd").literal("01234567").copy1(4, 4), true},
		{"short literal, output ends with it", newStream(24).literal(lit20).literal("abcd"), true},
		{"short literal, 16 bytes of input left but 8 of output", newStream(28).literal(lit20).literal("abcd").copy2(1, 1).copy2(1, 1).copy2(1, 1).copy2(1, 1), true},
		{"short literal overrunning the output", newStream(3).literal("abcd").literal(lit20), false},
		{"short literal overrunning the output late", newStream(22).literal(lit20).literal("abcd").literal(lit20), false},
		{"literal overrunning the output", newStream(19).literal(lit20), false},
		{"literal longer than the input", append(newStream(20), 19<<2|tagLiteral, 'a', 'b'), false},
		{"output short of the preamble", newStream(21).literal(lit20), false},
	}
	for _, tc := range cases {
		want, refErr := refDecode(nil, tc.s)
		if (refErr == nil) != tc.ok {
			t.Fatalf("%s: the case itself is wrong: reference decoder says err=%v", tc.name, refErr)
		}
		got, overran, err := decodeGuarded(tc.s)
		if overran {
			t.Errorf("%s: Decode wrote past the decoded length", tc.name)
		}
		switch {
		case tc.ok && (err != nil || !bytes.Equal(got, want)):
			t.Errorf("%s: Decode = %q, %v; reference = %q", tc.name, got, err, want)
		case !tc.ok && !errors.Is(err, ErrCorrupt):
			t.Errorf("%s: Decode err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// TestEncodeGolden pins the encoder's exact output. Every executor shares
// this codec, so a change here changes every table the store writes from
// then on: it may be right, but it must be deliberate. Update the digests
// together with DESIGN.md's note on compressed sizes.
func TestEncodeGolden(t *testing.T) {
	t.Parallel()
	inputs := []struct {
		name string
		data []byte
		want string
	}{
		{"table block", benchBlocks()[1].data, "e830bd0aef3512d667fd42b9b371a019ed2eda8aba6df02e1f8b6e79a329b689"},
		{"word soup", bytes.Join(structuredInputs(40), nil), "d0db81e44d2d729811f7e61ac5463bdcc9b5f0a4ed1704ac062b383421c3eb0a"},
		{"two blocks and a tail", mixed(rand.New(rand.NewSource(17)), 2*maxBlockSize+4321), "ef10eb6c1ef2060a58147bd43c068ccfc5e69407f4c590771c942b32a4cc9a45"},
	}
	for _, in := range inputs {
		sum := sha256.Sum256(Encode(nil, in.data))
		if got := hex.EncodeToString(sum[:]); got != in.want {
			t.Errorf("%s: Encode digest = %s, want %s", in.name, got, in.want)
		}
	}
}

// TestEncoderReuseIsDeterministic: an Encoder's output must not depend on
// what it compressed before — the byte-identity of every executor's
// tables rests on it — including when a small block (small table) follows
// a large one that dirtied the whole table.
func TestEncoderReuseIsDeterministic(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(23))
	var used Encoder
	for i := 0; i < 200; i++ {
		src := mixed(rng, 1<<uint(4+rng.Intn(13))+rng.Intn(50))
		var fresh Encoder
		if a, b := used.Encode(nil, src), fresh.Encode(nil, src); !bytes.Equal(a, b) {
			t.Fatalf("input %d (%d bytes): a reused Encoder wrote %d bytes, a fresh one %d", i, len(src), len(a), len(b))
		}
	}
}

func ExampleEncoder() {
	var e Encoder // kept by the caller across blocks
	block := bytes.Repeat([]byte("compaction "), 100)
	enc := e.Encode(nil, block)
	dec, err := Decode(nil, enc)
	fmt.Println(len(enc) < len(block)/4, err, bytes.Equal(dec, block))
	// Output: true <nil> true
}
