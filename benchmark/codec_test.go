package main

import (
	"errors"
	"testing"
)

func TestKeyRoundTrip(t *testing.T) {
	for _, id := range []uint64{0, 7, 199_999, 9_999_999_999_999_999} {
		k := appendKey(nil, id)
		if len(k) != keyLen {
			t.Fatalf("key of %d has %d bytes", id, len(k))
		}
		got, ok := parseKey(k)
		if !ok || got != id {
			t.Errorf("parseKey(%q) = %d, %v", k, got, ok)
		}
	}
	if string(appendKey(nil, 9)) >= string(appendKey(nil, 10)) {
		t.Error("key order is not id order")
	}
	if _, ok := parseKey([]byte("short")); ok {
		t.Error("parseKey accepted a short key")
	}
	if _, ok := parseKey([]byte("00000000000000x1")); ok {
		t.Error("parseKey accepted a non-digit")
	}
}

// These are the cases that prove fail_ratio can leave 0: a result that is
// corrupted, belongs to another key, or is older than what was
// acknowledged is rejected.
func TestValueCodecRejects(t *testing.T) {
	c := newValueCodec(1)
	for _, size := range []int{valueHeaderLen, 128, 256, 1024} {
		v := c.encode(nil, 42, 3, size)
		if len(v) != size {
			t.Fatalf("encode(size %d) made %d bytes", size, len(v))
		}
		if got, err := c.check(v, 42, 3); err != nil || got != 3 {
			t.Fatalf("intact value: version %d, err %v", got, err)
		}
		if _, err := c.check(v, 42, 1); err != nil {
			t.Errorf("a newer version than acknowledged must pass: %v", err)
		}
		for _, pos := range []int{0, 9, 17, size - 1} {
			bad := append([]byte(nil), v...)
			bad[pos] ^= 0x40
			if _, err := c.check(bad, 42, 3); !errors.Is(err, errValueCorrupt) {
				t.Errorf("size %d: flipped byte %d: got %v, want corrupt", size, pos, err)
			}
		}
		if _, err := c.check(v, 43, 3); !errors.Is(err, errValueWrongKey) {
			t.Errorf("size %d: wrong key: got %v", size, err)
		}
		if _, err := c.check(v, 42, 4); !errors.Is(err, errValueStale) {
			t.Errorf("size %d: stale version: got %v", size, err)
		}
		if _, err := c.check(v[:valueHeaderLen-1], 42, 3); !errors.Is(err, errValueCorrupt) {
			t.Errorf("size %d: truncated value: got %v", size, err)
		}
	}
}

func TestValueCodecDeterministic(t *testing.T) {
	a, b := newValueCodec(7), newValueCodec(7)
	if string(a.encode(nil, 5, 2, 256)) != string(b.encode(nil, 5, 2, 256)) {
		t.Error("same seed, different value")
	}
	if string(a.encode(nil, 5, 2, 256)) == string(newValueCodec(8).encode(nil, 5, 2, 256)) {
		t.Error("different seed, same value")
	}
	if string(a.encode(nil, 5, 2, 256)) == string(a.encode(nil, 5, 3, 256)) {
		t.Error("different version, same value")
	}
}
