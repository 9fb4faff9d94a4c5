package server

import (
	"bytes"
	"testing"
)

// FuzzFrameDecode feeds hostile bytes through every wire decoder. The
// contract under attack: decoders must return an error for malformed
// input — never panic, and never allocate proportionally to a length
// claimed by the input rather than its actual size.
func FuzzFrameDecode(f *testing.F) {
	// Valid frames seed the corpus so mutation explores near-valid input.
	f.Add(AppendFrame(nil, 1, byte(OpGet), AppendGetPayload(nil, []byte("key"))))
	f.Add(AppendFrame(nil, 2, byte(OpPut), AppendPutPayload(nil, []byte("k"), []byte("v"))))
	var b Batch
	b.Put([]byte("k1"), []byte("v1"))
	b.Delete([]byte("k2"))
	f.Add(AppendFrame(nil, 3, byte(OpWrite), AppendWritePayload(nil, &b)))
	f.Add(AppendFrame(nil, 4, byte(OpScan), AppendScanPayload(nil, []byte("s"), 100)))
	scan := appendUvarint(nil, 1)
	scan = AppendBytes(scan, []byte("key"))
	scan = AppendBytes(scan, []byte("value"))
	f.Add(AppendFrame(nil, 5, byte(StatusOK), scan))
	// Hostile seeds: huge claimed lengths with tiny bodies.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// SCAN replies whose count outruns their bytes: by 2^62 pairs, and by
	// the back half of one.
	f.Add(AppendFrame(nil, 6, byte(StatusOK), hostileScanCount()))
	f.Add(hostileScanCount())
	f.Add(AppendFrame(nil, 7, byte(StatusOK), truncatedScanReply()))
	f.Add(truncatedScanReply())

	const maxFrame = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFrame {
			data = data[:maxFrame]
		}
		id, op, payload, rest, err := DecodeFrame(data, maxFrame)
		if err == nil {
			// A decoded frame must re-encode to the bytes it came from.
			re := AppendFrame(nil, id, op, payload)
			if !bytes.Equal(re, data[:len(data)-len(rest)]) {
				t.Fatalf("re-encode mismatch: % x vs % x", re, data[:len(data)-len(rest)])
			}
		}
		// Streaming decoder must agree on accept/reject.
		_, _, _, rerr := ReadFrame(bytes.NewReader(data), maxFrame)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("DecodeFrame err=%v but ReadFrame err=%v", err, rerr)
		}

		// Payload decoders: error or succeed, never panic.
		_ = DecodeWriteOps(data, func(kind byte, key, value []byte) error { return nil })
		if kvs, err := DecodeScanPayload(data); err == nil {
			// Pairs must be backed by the input, not fabricated.
			for _, kv := range kvs {
				if len(kv.Key)+len(kv.Value) > len(data) {
					t.Fatalf("scan pair larger than input: %d+%d > %d",
						len(kv.Key), len(kv.Value), len(data))
				}
			}
		}
		if n, _, err := ReadUvarint(data); err == nil && n > uint64(len(data))*8 {
			// ReadUvarint itself just decodes; sanity only.
			_ = n
		}
		if v, _, err := ReadBytes(data); err == nil && len(v) > len(data) {
			t.Fatalf("ReadBytes returned %d bytes from %d input", len(v), len(data))
		}
	})
}
