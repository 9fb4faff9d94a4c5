package server

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// hostileScanCount is a SCAN reply payload declaring 2^62 pairs over three
// bytes; truncatedScanReply one that ends inside its second pair. Both are
// FuzzFrameDecode seeds as well.
func hostileScanCount() []byte { return append(appendUvarint(nil, 1<<62), 1, 'k', 0) }

func truncatedScanReply() []byte {
	p := appendUvarint(nil, 2)
	p = AppendBytes(p, []byte("key-1"))
	p = AppendBytes(p, []byte("value-1"))
	p = AppendBytes(p, []byte("key-2"))
	p = AppendBytes(p, []byte("value-2"))
	return p[:len(p)-4]
}

// TestDecodeScanPayloadBoundsItsCount: the result is sized from the
// declared count, so the count is held to what the payload can hold
// before it sizes anything.
func TestDecodeScanPayloadBoundsItsCount(t *testing.T) {
	hostile := hostileScanCount()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeScanPayload(hostile)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrMalformedFrame) {
		t.Fatalf("2^62 pairs in 3 bytes: err = %v, want ErrMalformedFrame", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("rejecting a hostile count allocated %d bytes", grew)
	}
	if _, err := DecodeScanPayload(truncatedScanReply()); !errors.Is(err, ErrMalformedFrame) {
		t.Fatalf("reply cut inside an entry: err = %v, want ErrMalformedFrame", err)
	}
	// The bound is tight: n pairs of two empty fields take 2n bytes.
	empties := append(appendUvarint(nil, 3), make([]byte, 6)...)
	if kvs, err := DecodeScanPayload(empties); err != nil || len(kvs) != 3 || cap(kvs) != 3 {
		t.Fatalf("three empty pairs: %d pairs (cap %d), err %v", len(kvs), cap(kvs), err)
	}
	if _, err := DecodeScanPayload(append(appendUvarint(nil, 4), make([]byte, 6)...)); !errors.Is(err, ErrMalformedFrame) {
		t.Fatalf("four pairs declared over six bytes: err = %v, want ErrMalformedFrame", err)
	}
}

// TestScanFirstEntryOverFrameBudget: when not even the first entry fits
// the frame, the reply is an error naming its size. It used to be an empty
// OK, which a client cannot tell from the end of the data.
func TestScanFirstEntryOverFrameBudget(t *testing.T) {
	t.Parallel()
	s := openTestServer(t, Config{MaxFrameBytes: 2048})
	if err := s.db.Put([]byte("big"), bytes.Repeat([]byte("v"), 4<<10)); err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, s)
	rc.send(1, OpScan, AppendScanPayload(nil, nil, 10))
	_, st, payload := rc.recv()
	if st != StatusErr || !strings.Contains(string(payload), "4096 value bytes") {
		t.Fatalf("scan over an entry larger than the frame: status %v, payload %q", st, payload)
	}
	// An entry that does not fit behind others still just ends the reply.
	if err := s.db.Put([]byte("a-small"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	rc.send(2, OpScan, AppendScanPayload(nil, nil, 10))
	_, st, payload = rc.recv()
	kvs, err := DecodeScanPayload(payload)
	if st != StatusOK || err != nil || len(kvs) != 1 || string(kvs[0].Key) != "a-small" {
		t.Fatalf("scan ending at an oversized entry: status %v, %d pairs, err %v", st, len(kvs), err)
	}
}

// TestScanReplyBufferIsRecycled: SCAN replies are built in buffers the
// server keeps, so the scans after the first allocate none, and a reply
// past maxPooledReply does not leave its buffer behind.
func TestScanReplyBufferIsRecycled(t *testing.T) {
	t.Parallel()
	s := openTestServer(t, Config{})
	var mu sync.Mutex
	var made []*[]byte // every buffer the pool had to make
	s.replyBufs.New = func() any {
		b := new([]byte)
		mu.Lock()
		made = append(made, b)
		mu.Unlock()
		return b
	}
	for i := 0; i < 50; i++ {
		if err := s.db.Put([]byte(fmt.Sprintf("a%03d", i)), bytes.Repeat([]byte("v"), 500)); err != nil {
			t.Fatal(err)
		}
	}
	rc := dialRaw(t, s)
	const scans = 200
	for i := 0; i < scans; i++ {
		rc.send(uint64(i), OpScan, AppendScanPayload(nil, []byte("a"), 50))
		_, st, payload := rc.recv()
		if kvs, err := DecodeScanPayload(payload); st != StatusOK || err != nil || len(kvs) != 50 {
			t.Fatalf("scan %d: status %v, %d pairs, err %v", i, st, len(kvs), err)
		}
	}
	// A pool keeps a buffer per P and loses them to the garbage collector
	// (and, under the race detector, to chance), so "one" is not exact;
	// one per scan is what it was.
	limit := scans / 8
	if raceEnabled {
		limit = scans / 2
	}
	mu.Lock()
	n := len(made)
	mu.Unlock()
	if n == 0 || n > limit {
		t.Fatalf("%d identical scans made %d reply buffers, want 1..%d", scans, n, limit)
	}

	for i := 0; i < 600; i++ {
		if err := s.db.Put([]byte(fmt.Sprintf("b%03d", i)), bytes.Repeat([]byte("w"), 4<<10)); err != nil {
			t.Fatal(err)
		}
	}
	rc.send(scans, OpScan, AppendScanPayload(nil, []byte("b"), 1000))
	_, st, payload := rc.recv()
	if st != StatusOK || len(payload) < 2<<20 {
		t.Fatalf("large scan: status %v, %d payload bytes", st, len(payload))
	}
	// The handler gives its buffer back after the reply is on the wire and
	// its admission token after that: holding every token is having waited
	// for it.
	for i := 0; i < cap(s.inflight); i++ {
		s.inflight <- struct{}{}
	}
	for i := 0; i < cap(s.inflight); i++ {
		<-s.inflight
	}
	mu.Lock()
	defer mu.Unlock()
	for _, b := range made {
		if cap(*b) > maxPooledReply {
			t.Fatalf("a reply buffer of %d bytes was kept", cap(*b))
		}
	}
}
