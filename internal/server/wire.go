// Package server implements the fcae network serving layer: a TCP
// key-value service speaking a length-prefixed binary protocol with
// pipelined requests and out-of-order responses, stall-aware admission
// control that sheds writes with a typed busy error while the store
// throttles, and an HTTP admin plane serving the metrics registry.
// Concurrent client writes are grouped by the store's writer queue
// (lsm.DB.Write); the server adds no commit layer of its own.
//
// # Frame layout
//
// Every request and response is one frame:
//
//	uint32 (big endian)  n — byte length of the rest of the frame
//	uint64 (big endian)  request id, chosen by the client, echoed verbatim
//	uint8                opcode (request) / status (response)
//	[n-9]byte            payload
//
// Frames on one connection are independent: a client may pipeline any
// number of requests without waiting, and the server responds in
// completion order, not arrival order — responses are matched to requests
// by id. Payload fields are uvarint length-prefixed byte strings unless
// noted.
//
//	GET    key                  -> OK value | NOT_FOUND
//	PUT    key value            -> OK
//	DELETE key                  -> OK
//	WRITE  count {kind key [value]}* -> OK            (atomic batch)
//	SCAN   start limit(uvarint) -> OK count {key value}*
//
// Any write may instead answer BUSY (admission control shed it) or
// CLOSING (the server is draining); any request may answer ERR with a
// human-readable message payload.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame geometry. The length word counts the id, the op byte and the
// payload — not itself.
const (
	frameHeaderSize = 4
	framePrefixSize = 9 // 8-byte id + 1-byte op/status

	// DefaultMaxFrameBytes bounds a single frame (and therefore a single
	// key+value or scan result) unless Config/Options override it.
	DefaultMaxFrameBytes = 16 << 20
)

// Op is a request opcode.
type Op uint8

// Request opcodes. Zero is deliberately invalid so an all-zero frame is
// rejected.
const (
	OpGet Op = iota + 1
	OpPut
	OpDelete
	OpWrite
	OpScan
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpWrite:
		return "write"
	case OpScan:
		return "scan"
	}
	return "invalid"
}

// writes reports whether the opcode mutates the store (and is therefore
// subject to write admission control).
func (o Op) writes() bool {
	return o == OpPut || o == OpDelete || o == OpWrite
}

// Status is a response status byte.
type Status uint8

// Response statuses.
const (
	StatusOK Status = iota
	StatusNotFound
	StatusBusy
	StatusClosing
	StatusErr
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not-found"
	case StatusBusy:
		return "busy"
	case StatusClosing:
		return "closing"
	case StatusErr:
		return "error"
	}
	return "invalid"
}

// Typed protocol errors. ErrServerBusy and ErrServerClosing travel the
// wire as StatusBusy/StatusClosing and come back out of the client as
// these exact values, so callers select on them with errors.Is.
var (
	// ErrServerBusy reports that admission control shed the write: the
	// store is in a hard write stall. The request was not applied;
	// retrying after a backoff is safe.
	ErrServerBusy = errors.New("server: busy: write shed by admission control")
	// ErrServerClosing reports that the server is draining and no longer
	// accepts new work.
	ErrServerClosing = errors.New("server: shutting down")
	// ErrFrameTooLarge reports a frame whose declared length exceeds the
	// configured maximum. The declared length is never allocated.
	ErrFrameTooLarge = errors.New("server: frame exceeds size limit")
	// ErrMalformedFrame reports a frame that violates the wire layout.
	ErrMalformedFrame = errors.New("server: malformed frame")
)

// AppendFrame appends one encoded frame to dst and returns the extended
// slice. op carries an Op on the request path and a Status on the
// response path.
func AppendFrame(dst []byte, id uint64, op byte, payload []byte) []byte {
	var hdr [frameHeaderSize + framePrefixSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(framePrefixSize+len(payload)))
	binary.BigEndian.PutUint64(hdr[4:12], id)
	hdr[12] = op
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// DecodeFrame parses one complete frame from the front of b, returning
// the remaining bytes. The payload aliases b. A frame whose declared
// length exceeds maxFrame (DefaultMaxFrameBytes when maxFrame <= 0)
// fails with ErrFrameTooLarge before any allocation or copy; a truncated
// or undersized frame fails with ErrMalformedFrame wrapped around the
// detail.
func DecodeFrame(b []byte, maxFrame int) (id uint64, op byte, payload, rest []byte, err error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrameBytes
	}
	if len(b) < frameHeaderSize {
		return 0, 0, nil, nil, fmt.Errorf("%w: %d header bytes", ErrMalformedFrame, len(b))
	}
	n := binary.BigEndian.Uint32(b[0:4])
	if n < framePrefixSize {
		return 0, 0, nil, nil, fmt.Errorf("%w: declared length %d below frame prefix", ErrMalformedFrame, n)
	}
	if n > uint32(maxFrame) {
		return 0, 0, nil, nil, fmt.Errorf("%w: declared length %d", ErrFrameTooLarge, n)
	}
	if uint32(len(b)-frameHeaderSize) < n {
		return 0, 0, nil, nil, fmt.Errorf("%w: %d bytes for declared length %d", ErrMalformedFrame, len(b)-frameHeaderSize, n)
	}
	body := b[frameHeaderSize : frameHeaderSize+int(n)]
	id = binary.BigEndian.Uint64(body[0:8])
	return id, body[8], body[framePrefixSize:], b[frameHeaderSize+int(n):], nil
}

// ReadFrame reads one frame from r. The returned payload is freshly
// allocated (safe to retain across subsequent reads — the serving path
// hands payloads to concurrent handlers). Hostile declared lengths fail
// before allocation: nothing larger than maxFrame (DefaultMaxFrameBytes
// when maxFrame <= 0) is ever made.
func ReadFrame(r io.Reader, maxFrame int) (id uint64, op byte, payload []byte, err error) {
	var body []byte
	return readFrame(r, maxFrame, &body)
}

// readFrame is ReadFrame reading the length word and then the frame into
// *body, which it replaces with a fresh slice when its capacity falls
// short. The payload aliases *body.
func readFrame(r io.Reader, maxFrame int, body *[]byte) (id uint64, op byte, payload []byte, err error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrameBytes
	}
	if cap(*body) < frameHeaderSize {
		*body = make([]byte, frameHeaderSize)
	}
	hdr := (*body)[:frameHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n < framePrefixSize {
		return 0, 0, nil, fmt.Errorf("%w: declared length %d below frame prefix", ErrMalformedFrame, n)
	}
	if n > uint32(maxFrame) {
		return 0, 0, nil, fmt.Errorf("%w: declared length %d", ErrFrameTooLarge, n)
	}
	if uint32(cap(*body)) < n {
		*body = make([]byte, n)
	}
	b := (*body)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	return binary.BigEndian.Uint64(b[0:8]), b[8], b[framePrefixSize:], nil
}

// appendUvarint appends v in uvarint form.
func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(dst, tmp[:binary.PutUvarint(tmp[:], v)]...)
}

// AppendBytes appends a uvarint length-prefixed byte string field.
func AppendBytes(dst, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// ReadBytes decodes one uvarint length-prefixed field from the front of
// p, returning the field (aliasing p) and the remainder. The decoded
// length is validated against the remaining bytes before use.
func ReadBytes(p []byte) (field, rest []byte, err error) {
	n, w := binary.Uvarint(p)
	if w <= 0 || uint64(len(p)-w) < n {
		return nil, nil, fmt.Errorf("%w: bad length-prefixed field", ErrMalformedFrame)
	}
	return p[w : w+int(n)], p[w+int(n):], nil
}

// ReadUvarint decodes one uvarint from the front of p.
func ReadUvarint(p []byte) (v uint64, rest []byte, err error) {
	v, w := binary.Uvarint(p)
	if w <= 0 {
		return 0, nil, fmt.Errorf("%w: bad uvarint field", ErrMalformedFrame)
	}
	return v, p[w:], nil
}

// Batch op kinds inside a WRITE payload.
const (
	wireKindPut    = 0
	wireKindDelete = 1
)

// Batch accumulates Put/Delete operations for one atomic WRITE request.
// The zero value is ready to use; Reset recycles the buffer.
type Batch struct {
	ops   []byte
	count int
}

// Put queues a key/value set.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, wireKindPut)
	b.ops = AppendBytes(b.ops, key)
	b.ops = AppendBytes(b.ops, value)
	b.count++
}

// Delete queues a tombstone.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, wireKindDelete)
	b.ops = AppendBytes(b.ops, key)
	b.count++
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return b.count }

// Reset clears the batch for reuse.
func (b *Batch) Reset() {
	b.ops = b.ops[:0]
	b.count = 0
}

// AppendWritePayload appends b's WRITE payload (uvarint count + ops).
func AppendWritePayload(dst []byte, b *Batch) []byte {
	dst = appendUvarint(dst, uint64(b.count))
	return append(dst, b.ops...)
}

// DecodeWriteOps walks a WRITE payload, invoking fn per operation (value
// is nil for deletes). It validates the whole payload — trailing garbage
// or a count mismatching the encoded ops is ErrMalformedFrame — so a
// payload that decodes once decodes identically again.
func DecodeWriteOps(p []byte, fn func(kind byte, key, value []byte) error) error {
	count, p, err := ReadUvarint(p)
	if err != nil {
		return err
	}
	for i := uint64(0); i < count; i++ {
		if len(p) == 0 {
			return fmt.Errorf("%w: write batch truncated at op %d", ErrMalformedFrame, i)
		}
		kind := p[0]
		p = p[1:]
		var key, value []byte
		if key, p, err = ReadBytes(p); err != nil {
			return err
		}
		switch kind {
		case wireKindPut:
			if value, p, err = ReadBytes(p); err != nil {
				return err
			}
		case wireKindDelete:
			// no value
		default:
			return fmt.Errorf("%w: unknown batch op kind %d", ErrMalformedFrame, kind)
		}
		if err := fn(kind, key, value); err != nil {
			return err
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after write batch", ErrMalformedFrame, len(p))
	}
	return nil
}

// KV is one key/value pair in a SCAN result.
type KV struct {
	Key   []byte
	Value []byte
}

// DecodeScanPayload decodes an OK SCAN response payload. Pairs alias p.
// The result is sized once, by a count the payload's own length has
// vouched for: a pair takes at least its two length bytes, so a count
// above half the bytes that follow it is ErrMalformedFrame before it
// sizes anything, as is one exceeding the encoded pairs.
func DecodeScanPayload(p []byte) ([]KV, error) {
	count, p, err := ReadUvarint(p)
	if err != nil {
		return nil, err
	}
	if count > uint64(len(p)/2) {
		return nil, fmt.Errorf("%w: scan result declares %d pairs in %d bytes", ErrMalformedFrame, count, len(p))
	}
	out := make([]KV, 0, count)
	for i := uint64(0); i < count; i++ {
		var k, v []byte
		if k, p, err = ReadBytes(p); err != nil {
			return nil, err
		}
		if v, p, err = ReadBytes(p); err != nil {
			return nil, err
		}
		out = append(out, KV{Key: k, Value: v})
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after scan result", ErrMalformedFrame, len(p))
	}
	return out, nil
}

// Request payload builders, shared by the client and the tests.

// AppendGetPayload appends a GET payload.
func AppendGetPayload(dst, key []byte) []byte { return AppendBytes(dst, key) }

// AppendPutPayload appends a PUT payload.
func AppendPutPayload(dst, key, value []byte) []byte {
	dst = AppendBytes(dst, key)
	return AppendBytes(dst, value)
}

// AppendDeletePayload appends a DELETE payload.
func AppendDeletePayload(dst, key []byte) []byte { return AppendBytes(dst, key) }

// AppendScanPayload appends a SCAN payload.
func AppendScanPayload(dst, start []byte, limit int) []byte {
	dst = AppendBytes(dst, start)
	return appendUvarint(dst, uint64(limit))
}
