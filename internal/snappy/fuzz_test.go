package snappy

import (
	"bytes"
	"testing"
)

// FuzzSnappyRoundtrip checks Encode∘Decode is the identity on arbitrary
// input, and that Decode survives the same bytes interpreted as a
// (probably corrupt) compressed stream.
func FuzzSnappyRoundtrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello hello hello hello"))
	f.Add(bytes.Repeat([]byte{0xab}, 70000)) // spans two encode blocks
	f.Add([]byte{0x04, 0x0c, 'a', 'b', 'c', 'd'})

	f.Fuzz(func(t *testing.T, data []byte) {
		enc := Encode(nil, data)
		dec, err := Decode(nil, enc)
		if err != nil {
			t.Fatalf("decoding our own encoding: %v", err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("roundtrip mismatch: %d bytes in, %d out", len(data), len(dec))
		}

		// Treat the raw input as a compressed stream; it must decode or
		// fail cleanly, never panic. Skip absurd claimed lengths so the
		// fuzzer does not spend its time allocating.
		if n, err := DecodedLen(data); err == nil && n <= 4<<20 {
			_, _ = Decode(nil, data)
		}
	})
}

// FuzzSnappyDecode feeds arbitrary bytes to the decoder beside the
// byte-at-a-time reference: they must agree on whether the stream is
// valid and, when it is, on every output byte; and the decoder must not
// write past the decoded length whatever the stream says.
func FuzzSnappyDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add([]byte{0x04, 0x0c, 'a', 'b', 'c', 'd'})
	f.Add([]byte(newStream(36).literal("0123456789abcdefghij").copy2(7, 16)))
	f.Add([]byte(newStream(84).literal("0123456789abcdefghij").copy2(3, 64)))
	f.Add([]byte(newStream(23).literal("0123456789abcdefghij").copy1(9, 4)))
	f.Add([]byte(newStream(40).literal("0123456789abcdefghij").copy2(21, 8).literal("0123456789ab")))
	f.Add([]byte(newStream(3).literal("abcd").literal("0123456789abcdefghij")))
	for _, blk := range benchBlocks() {
		f.Add(Encode(nil, blk.data))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if n, err := DecodedLen(data); err == nil && n > 4<<20 {
			t.Skip("claimed length too large to be worth allocating")
		}
		want, wantErr := refDecode(nil, data)
		got, overran, err := decodeGuarded(data)
		if overran {
			t.Fatal("Decode wrote past the decoded length")
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Decode err = %v, reference err = %v", err, wantErr)
		}
		if err != nil && err != wantErr {
			t.Fatalf("Decode err = %v, reference err = %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("Decode and the reference disagree on %d output bytes", len(want))
		}
	})
}
