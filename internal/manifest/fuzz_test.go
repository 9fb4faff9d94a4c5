package manifest

import (
	"errors"
	"reflect"
	"testing"

	"fcae/internal/corruption"
)

// FuzzVersionEditDecode feeds hostile MANIFEST records to DecodeEdit. The
// contract under attack: a record decodes or fails with an error of the
// corruption class — never a panic — and whatever decodes re-encodes to a
// record that decodes to the same edit.
func FuzzVersionEditDecode(f *testing.F) {
	// TestEditRoundTrip's edit.
	e := &VersionEdit{}
	e.SetLogNum(7)
	e.SetNextFileNum(42)
	e.SetLastSeq(999)
	e.DeleteFile(1, 10)
	e.AddFile(2, meta(11, 2048, "aaa", "zzz"))
	f.Add(e.Encode())
	// A tiered run's file (tagNewFileRun).
	run := &VersionEdit{}
	m := meta(12, 4096, "bbb", "ccc")
	m.RunID = 3
	run.AddFile(1, m)
	f.Add(run.Encode())
	// TestDecodeDropsCompactPointer's tag-4 records: a pointer between the
	// counters and the files, a hostile level, a truncated key.
	head := &VersionEdit{}
	head.SetLogNum(7)
	head.SetNextFileNum(12)
	head.SetLastSeq(999)
	files := &VersionEdit{}
	files.AddFile(2, meta(11, 2048, "aaa", "zzz"))
	pointer := func(level uint64) []byte {
		b := putUvarint(nil, tagCompactPointer)
		b = putUvarint(b, level)
		return putBytes(b, ik("ptr", 5))
	}
	f.Add(append(append(head.Encode(), pointer(3)...), files.Encode()...))
	f.Add(append(head.Encode(), pointer(NumLevels+1)...))
	short := append(head.Encode(), pointer(3)...)
	f.Add(short[:len(short)-3])

	f.Fuzz(func(t *testing.T, record []byte) {
		e, err := DecodeEdit(record)
		if err != nil {
			if !errors.Is(err, corruption.Err) {
				t.Fatalf("DecodeEdit error %v is not of the corruption class", err)
			}
			return
		}
		again, err := DecodeEdit(e.Encode())
		if err != nil {
			t.Fatalf("re-encoded edit fails to decode: %v", err)
		}
		if !reflect.DeepEqual(again, e) {
			t.Fatalf("edit changed across Encode/DecodeEdit:\n%+v\n%+v", e, again)
		}
	})
}
