package manifest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"fcae/internal/corruption"
	"fcae/internal/keys"
	"fcae/internal/vfs"
	"fcae/internal/wal"
)

func ik(user string, seq uint64) []byte {
	return keys.MakeInternal(nil, []byte(user), seq, keys.KindSet)
}

func meta(num uint64, size uint64, lo, hi string) *FileMetadata {
	return &FileMetadata{Num: num, Size: size, Smallest: ik(lo, 100), Largest: ik(hi, 1)}
}

func TestEditRoundTrip(t *testing.T) {
	e := &VersionEdit{}
	e.SetLogNum(7)
	e.SetNextFileNum(42)
	e.SetLastSeq(999)
	e.DeleteFile(1, 10)
	e.AddFile(2, meta(11, 2048, "aaa", "zzz"))

	dec, err := DecodeEdit(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !dec.HasLogNum || dec.LogNum != 7 {
		t.Error("log num lost")
	}
	if !dec.HasNextFileNum || dec.NextFileNum != 42 {
		t.Error("next file num lost")
	}
	if !dec.HasLastSeq || dec.LastSeq != 999 {
		t.Error("last seq lost")
	}
	if len(dec.Deleted) != 1 || dec.Deleted[0] != (DeletedFile{1, 10}) {
		t.Error("deleted file lost")
	}
	if len(dec.Added) != 1 || dec.Added[0].Meta.Num != 11 || dec.Added[0].Level != 2 {
		t.Error("added file lost")
	}
	if !bytes.Equal(dec.Added[0].Meta.Smallest, ik("aaa", 100)) {
		t.Error("smallest key lost")
	}
}

func TestDecodeEditRejectsGarbage(t *testing.T) {
	if _, err := DecodeEdit([]byte{0xff, 0x01, 0x02}); err == nil {
		t.Fatal("garbage edit accepted")
	}
	// Level out of range.
	e := &VersionEdit{}
	e.DeleteFile(1, 5)
	enc := e.Encode()
	enc[1] = NumLevels + 1
	if _, err := DecodeEdit(enc); err == nil {
		t.Fatal("out-of-range level accepted")
	}
}

// TestDecodeDropsCompactPointer: MANIFESTs written before the least-overlap
// pick carry LevelDB's compact pointer (tag 4: a level and an internal
// key). They still decode and open with the same files; the pointer is
// validated and dropped.
func TestDecodeDropsCompactPointer(t *testing.T) {
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
	// The older encoder wrote the pointers after the counters and before
	// the file changes.
	old := append(append(head.Encode(), pointer(3)...), files.Encode()...)
	want := append(head.Encode(), files.Encode()...)

	dec, err := DecodeEdit(old)
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("decoded edit re-encodes as %x, want %x (the pointer dropped, the rest kept)", got, want)
	}

	// A snapshot MANIFEST holding the pointer reopens with its files.
	dir := t.TempDir()
	f, err := os.Create(ManifestPath(dir, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.NewWriter(f, manifestCRC).Append(old); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := setCurrent(vfs.Default, dir, 5); err != nil {
		t.Fatal(err)
	}
	vs, err := Open(vfs.Default, dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := vs.Current()
	if v.TotalFiles() != 1 || v.NumFiles(2) != 1 || v.Levels[2][0].Num != 11 || vs.LogNum() != 7 || vs.LastSeq() != 999 {
		t.Fatalf("reopened with %d files (L2 %d), log %d, seq %d; want table 11 alone at L2, log 7, seq 999",
			v.TotalFiles(), v.NumFiles(2), vs.LogNum(), vs.LastSeq())
	}
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}

	// A hostile level in the pointer is still corruption.
	hostile := append(head.Encode(), pointer(NumLevels+1)...)
	if _, err := DecodeEdit(hostile); !errors.Is(err, corruption.Err) {
		t.Fatalf("tag-4 level %d decoded with %v, want corruption", NumLevels+1, err)
	}
	short := append(head.Encode(), pointer(3)...)
	if _, err := DecodeEdit(short[:len(short)-3]); !errors.Is(err, corruption.Err) {
		t.Fatalf("truncated tag-4 key decoded with %v, want corruption", err)
	}
}

func TestVersionApplyAddDelete(t *testing.T) {
	v := &Version{}
	e := &VersionEdit{}
	e.AddFile(1, meta(1, 100, "a", "c"))
	e.AddFile(1, meta(2, 100, "d", "f"))
	v2, err := v.Apply(e)
	if err != nil {
		t.Fatal(err)
	}
	if v2.NumFiles(1) != 2 {
		t.Fatalf("NumFiles = %d", v2.NumFiles(1))
	}
	if v.NumFiles(1) != 0 {
		t.Fatal("Apply mutated the original version")
	}

	e2 := &VersionEdit{}
	e2.DeleteFile(1, 1)
	v3, err := v2.Apply(e2)
	if err != nil {
		t.Fatal(err)
	}
	if v3.NumFiles(1) != 1 || v3.Levels[1][0].Num != 2 {
		t.Fatal("delete did not remove file 1")
	}

	e3 := &VersionEdit{}
	e3.DeleteFile(1, 999)
	if _, err := v3.Apply(e3); err == nil {
		t.Fatal("deleting unknown file must fail")
	}
}

func TestVersionApplyDetectsOverlap(t *testing.T) {
	v := &Version{}
	e := &VersionEdit{}
	e.AddFile(1, meta(1, 100, "a", "m"))
	e.AddFile(1, meta(2, 100, "k", "z")) // overlaps
	if _, err := v.Apply(e); err == nil {
		t.Fatal("overlapping files at level 1 accepted")
	}
}

func TestVersionApplySortsLevels(t *testing.T) {
	v := &Version{}
	e := &VersionEdit{}
	e.AddFile(2, meta(2, 100, "x", "z"))
	e.AddFile(2, meta(1, 100, "a", "c"))
	v2, err := v.Apply(e)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Levels[2][0].Num != 1 {
		t.Fatal("level 2 not sorted by smallest key")
	}
}

func TestOverlappingLevel1(t *testing.T) {
	v := &Version{}
	e := &VersionEdit{}
	e.AddFile(1, meta(1, 100, "a", "c"))
	e.AddFile(1, meta(2, 100, "e", "g"))
	e.AddFile(1, meta(3, 100, "i", "k"))
	v, _ = v.Apply(e)

	got := v.Overlapping(1, []byte("d"), []byte("f"))
	if len(got) != 1 || got[0].Num != 2 {
		t.Fatalf("Overlapping(d,f) = %v", got)
	}
	got = v.Overlapping(1, []byte("c"), []byte("i"))
	if len(got) != 3 {
		t.Fatalf("Overlapping(c,i) returned %d files", len(got))
	}
	got = v.Overlapping(1, []byte("x"), []byte("z"))
	if len(got) != 0 {
		t.Fatal("no overlap expected")
	}
}

func TestOverlappingLevel0Transitive(t *testing.T) {
	v := &Version{}
	e := &VersionEdit{}
	e.AddFile(0, meta(1, 100, "a", "e"))
	e.AddFile(0, meta(2, 100, "d", "j"))
	e.AddFile(0, meta(3, 100, "i", "p"))
	e.AddFile(0, meta(4, 100, "x", "z"))
	v, _ = v.Apply(e)

	// Query hits file 1 only, but 1 overlaps 2 which overlaps 3.
	got := v.Overlapping(0, []byte("b"), []byte("c"))
	if len(got) != 3 {
		t.Fatalf("transitive L0 overlap returned %d files, want 3", len(got))
	}
}

func TestForEachOverlappingOrder(t *testing.T) {
	v := &Version{}
	e := &VersionEdit{}
	e.AddFile(0, meta(10, 100, "a", "z"))
	e.AddFile(0, meta(12, 100, "a", "z")) // newer L0 file
	e.AddFile(1, meta(5, 100, "a", "m"))
	v, _ = v.Apply(e)

	var visited []uint64
	v.ForEachOverlapping([]byte("b"), func(level int, f *FileMetadata) bool {
		visited = append(visited, f.Num)
		return true
	})
	want := []uint64{12, 10, 5} // newest L0 first, then level 1
	if len(visited) != len(want) {
		t.Fatalf("visited %v", visited)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited %v, want %v", visited, want)
		}
	}
}

func TestConfigMaxBytes(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.MaxBytes(1) != 10<<20 {
		t.Fatalf("L1 budget = %d", cfg.MaxBytes(1))
	}
	if cfg.MaxBytes(2) != 100<<20 {
		t.Fatalf("L2 budget = %d", cfg.MaxBytes(2))
	}
	cfg.LevelRatio = 4
	if cfg.MaxBytes(3) != 10<<20*16 {
		t.Fatalf("ratio-4 L3 budget = %d", cfg.MaxBytes(3))
	}
}

func TestVersionSetPersistence(t *testing.T) {
	dir := t.TempDir()
	vs, err := Open(vfs.Default, dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	edit := &VersionEdit{}
	edit.AddFile(0, meta(vs.AllocFileNum(), 4096, "k1", "k9"))
	edit.SetLastSeq(77)
	edit.SetLogNum(3)
	if err := vs.LogAndApply(edit); err != nil {
		t.Fatal(err)
	}
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}

	vs2, err := Open(vfs.Default, dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer vs2.Close()
	if vs2.Current().NumFiles(0) != 1 {
		t.Fatalf("recovered %d L0 files", vs2.Current().NumFiles(0))
	}
	if vs2.LastSeq() != 77 {
		t.Fatalf("recovered seq %d", vs2.LastSeq())
	}
	if vs2.LogNum() != 3 {
		t.Fatalf("recovered log num %d", vs2.LogNum())
	}
}

// TestReferencedVersionKeepsTablesLive: a superseded version's tables stay
// in LiveFileNums while any reference to it is out, and the Unref that
// drops the last one says so.
func TestReferencedVersionKeepsTablesLive(t *testing.T) {
	vs, err := Open(vfs.Default, t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer vs.Close()
	replace := func(del, add uint64) {
		t.Helper()
		edit := &VersionEdit{}
		if del != 0 {
			edit.DeleteFile(1, del)
		}
		edit.AddFile(1, meta(add, 4096, "a", "z"))
		if err := vs.LogAndApply(edit); err != nil {
			t.Fatal(err)
		}
	}
	wantLive := func(nums ...uint64) {
		t.Helper()
		live := vs.LiveFileNums()
		if len(live) != len(nums) {
			t.Fatalf("live = %v, want %v", live, nums)
		}
		for _, n := range nums {
			if !live[n] {
				t.Fatalf("live = %v, want %v", live, nums)
			}
		}
	}
	replace(0, 10)
	v10a, v10b := vs.Ref(), vs.Ref()
	replace(10, 11)
	v11 := vs.Ref()
	replace(11, 12)
	wantLive(10, 11, 12)

	if vs.Unref(v10a) {
		t.Fatal("Unref reported the version dead with a reference still out")
	}
	wantLive(10, 11, 12)
	if !vs.Unref(v10b) {
		t.Fatal("last Unref of a superseded version did not report it")
	}
	wantLive(11, 12)
	if !vs.Unref(v11) {
		t.Fatal("last Unref of a superseded version did not report it")
	}
	wantLive(12)
	if vs.Unref(vs.Ref()) {
		t.Fatal("Unref of the current version reported tables obsolete")
	}
	wantLive(12)
}

func TestPickCompactionL0Trigger(t *testing.T) {
	dir := t.TempDir()
	vs, err := Open(vfs.Default, dir, Config{L0CompactionTrigger: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer vs.Close()
	edit := &VersionEdit{}
	for i := 0; i < 3; i++ {
		edit.AddFile(0, meta(vs.AllocFileNum(), 1<<20, "a", "z"))
	}
	if err := vs.LogAndApply(edit); err != nil {
		t.Fatal(err)
	}
	if c := vs.PickCompactionFiltered(nil); c != nil {
		t.Fatal("compaction picked below L0 trigger")
	}
	edit2 := &VersionEdit{}
	edit2.AddFile(0, meta(vs.AllocFileNum(), 1<<20, "a", "z"))
	if err := vs.LogAndApply(edit2); err != nil {
		t.Fatal(err)
	}
	c := vs.PickCompactionFiltered(nil)
	if c == nil || c.Level != 0 {
		t.Fatalf("expected L0 compaction, got %+v", c)
	}
	if len(c.Inputs[0]) != 4 {
		t.Fatalf("L0 compaction should take all 4 overlapping files, got %d", len(c.Inputs[0]))
	}
	if c.NumInputs() != 4 {
		t.Fatalf("NumInputs = %d; every L0 file is its own run", c.NumInputs())
	}
}

func TestPickCompactionSizeTrigger(t *testing.T) {
	dir := t.TempDir()
	vs, err := Open(vfs.Default, dir, Config{BaseLevelBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer vs.Close()
	edit := &VersionEdit{}
	// 3 MB at level 1 (budget 1 MB) -> score 3.
	for i := 0; i < 3; i++ {
		lo := fmt.Sprintf("k%02d", i*10)
		hi := fmt.Sprintf("k%02d", i*10+5)
		edit.AddFile(1, meta(vs.AllocFileNum(), 1<<20, lo, hi))
	}
	// One level-2 file under each level-1 file, so that no pick is a
	// trivial move.
	for i := 0; i < 3; i++ {
		lo := fmt.Sprintf("k%02d", i*10)
		hi := fmt.Sprintf("k%02d", i*10+9)
		edit.AddFile(2, meta(vs.AllocFileNum(), 1<<20, lo, hi))
	}
	if err := vs.LogAndApply(edit); err != nil {
		t.Fatal(err)
	}
	c := vs.PickCompactionFiltered(nil)
	if c == nil || c.Level != 1 {
		t.Fatalf("expected L1 compaction, got %+v", c)
	}
	if c.NumInputs() != 2 {
		t.Fatalf("NumInputs = %d, want 2 (one run per level)", c.NumInputs())
	}
	if len(c.Inputs[1]) != 1 {
		t.Fatalf("level-2 inputs = %d", len(c.Inputs[1]))
	}
}

func TestTrivialMove(t *testing.T) {
	dir := t.TempDir()
	vs, err := Open(vfs.Default, dir, Config{BaseLevelBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer vs.Close()
	edit := &VersionEdit{}
	edit.AddFile(1, meta(vs.AllocFileNum(), 2<<20, "a", "c"))
	// Nothing at level 2: moving down requires no rewrite.
	if err := vs.LogAndApply(edit); err != nil {
		t.Fatal(err)
	}
	c := vs.PickCompactionFiltered(nil)
	if c == nil {
		t.Fatal("no compaction picked")
	}
	if !c.IsTrivialMove() {
		t.Fatal("expected a trivial move")
	}
}

func TestIsBottomLevel(t *testing.T) {
	dir := t.TempDir()
	vs, err := Open(vfs.Default, dir, Config{BaseLevelBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer vs.Close()
	edit := &VersionEdit{}
	edit.AddFile(1, meta(vs.AllocFileNum(), 1<<20, "a", "c"))
	edit.AddFile(3, meta(vs.AllocFileNum(), 1<<20, "a", "c"))
	if err := vs.LogAndApply(edit); err != nil {
		t.Fatal(err)
	}
	c := vs.PickCompactionAtLevel(1, keys.Range{})
	if c == nil {
		t.Fatal("no compaction at level 1")
	}
	if c.IsBottomLevel(vs.Current()) {
		t.Fatal("level-3 data overlaps; not bottom level")
	}
	c3 := vs.PickCompactionAtLevel(3, keys.Range{})
	if c3 == nil {
		t.Fatal("no compaction at level 3")
	}
	if !c3.IsBottomLevel(vs.Current()) {
		t.Fatal("level 3 is the bottom here")
	}
}

func TestRecoveryAcrossManyEdits(t *testing.T) {
	dir := t.TempDir()
	vs, err := Open(vfs.Default, dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Apply a long history of adds and deletes.
	var live []uint64
	for i := 0; i < 200; i++ {
		edit := &VersionEdit{}
		num := vs.AllocFileNum()
		lo := fmt.Sprintf("k%06d", i*10)
		hi := fmt.Sprintf("k%06d", i*10+5)
		edit.AddFile(2, meta(num, 1000+uint64(i), lo, hi))
		live = append(live, num)
		if i%3 == 2 {
			edit.DeleteFile(2, live[0])
			live = live[1:]
		}
		edit.SetLastSeq(uint64(i * 100))
		if err := vs.LogAndApply(edit); err != nil {
			t.Fatal(err)
		}
	}
	wantFiles := vs.Current().NumFiles(2)
	wantSeq := vs.LastSeq()
	vs.Close()

	vs2, err := Open(vfs.Default, dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer vs2.Close()
	if vs2.Current().NumFiles(2) != wantFiles {
		t.Fatalf("recovered %d files, want %d", vs2.Current().NumFiles(2), wantFiles)
	}
	if vs2.LastSeq() != wantSeq {
		t.Fatalf("recovered seq %d, want %d", vs2.LastSeq(), wantSeq)
	}
	// Live file numbers must match exactly.
	recovered := vs2.LiveFileNums()
	for _, n := range live {
		if !recovered[n] {
			t.Fatalf("live file %d lost across recovery", n)
		}
	}
}

func TestRecoveryCompactsManifest(t *testing.T) {
	// Reopening rolls a fresh MANIFEST (a snapshot), replacing the long
	// edit history; the old manifest is removed.
	dir := t.TempDir()
	vs, _ := Open(vfs.Default, dir, Config{})
	for i := 0; i < 50; i++ {
		edit := &VersionEdit{}
		edit.AddFile(1, meta(vs.AllocFileNum(), 100, fmt.Sprintf("a%03d", i), fmt.Sprintf("a%03dz", i)))
		if err := vs.LogAndApply(edit); err != nil {
			t.Fatal(err)
		}
	}
	vs.Close()
	vs2, err := Open(vfs.Default, dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	vs2.Close()

	manifests := 0
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "MANIFEST-") {
			manifests++
		}
	}
	if manifests != 1 {
		t.Fatalf("expected exactly one MANIFEST after reopen, found %d", manifests)
	}
}

func TestCorruptCurrentRejected(t *testing.T) {
	dir := t.TempDir()
	vs, _ := Open(vfs.Default, dir, Config{})
	vs.Close()
	if err := os.WriteFile(CurrentPath(dir), []byte("MANIFEST-999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(vfs.Default, dir, Config{}); err == nil {
		t.Fatal("CURRENT pointing at a missing manifest accepted")
	}
}
