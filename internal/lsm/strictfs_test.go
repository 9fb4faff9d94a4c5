package lsm

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fcae/internal/vfs"
)

// strictFS is an in-memory vfs.FS that keeps apart, for every file, the
// bytes written to it and the bytes its last Sync covered. Crash returns
// the disk a power cut at that instant leaves behind. Directory entries
// are durable at once (there is no SyncDir): every create, rename and
// remove survives a crash. ReadDir lists files only.
type strictFS struct {
	mu    sync.Mutex
	files map[string]*memNode
	dirs  map[string]bool
}

// memNode is a file's contents. Files are only appended to, so what a
// Sync covered is a prefix.
type memNode struct {
	data   []byte
	synced int
}

func newStrictFS() *strictFS {
	return &strictFS{files: make(map[string]*memNode), dirs: map[string]bool{".": true}}
}

// Crash returns the disk as a power cut now leaves it: every file cut
// back to the bytes its last Sync covered, a file never synced empty. The
// receiver stays the crashed process's, so whatever it still does (its
// DB's Close, say) does not reach the returned disk.
func (s *strictFS) Crash() *strictFS {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := newStrictFS()
	for name, n := range s.files {
		c.files[name] = &memNode{data: slices.Clone(n.data[:n.synced]), synced: n.synced}
	}
	for d := range s.dirs {
		c.dirs[d] = true
	}
	return c
}

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

func (s *strictFS) Create(name string) (vfs.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	name = filepath.Clean(name)
	if !s.dirs[filepath.Dir(name)] {
		return nil, notExist("create", name)
	}
	n := &memNode{}
	s.files[name] = n
	return &memFile{fs: s, node: n, name: name}, nil
}

func (s *strictFS) Open(name string) (vfs.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	name = filepath.Clean(name)
	n, ok := s.files[name]
	if !ok {
		return nil, notExist("open", name)
	}
	return &memFile{fs: s, node: n, name: name}, nil
}

func (s *strictFS) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	name = filepath.Clean(name)
	if _, ok := s.files[name]; !ok {
		return notExist("remove", name)
	}
	delete(s.files, name)
	return nil
}

func (s *strictFS) Rename(oldname, newname string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	oldname, newname = filepath.Clean(oldname), filepath.Clean(newname)
	n, ok := s.files[oldname]
	if !ok {
		return &os.LinkError{Op: "rename", Old: oldname, New: newname, Err: fs.ErrNotExist}
	}
	delete(s.files, oldname)
	s.files[newname] = n
	return nil
}

func (s *strictFS) ReadDir(name string) ([]fs.DirEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	name = filepath.Clean(name)
	if !s.dirs[name] {
		return nil, notExist("readdir", name)
	}
	var out []fs.DirEntry
	for p, n := range s.files {
		if filepath.Dir(p) == name {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(p), size: int64(len(n.data))}))
		}
	}
	slices.SortFunc(out, func(a, b fs.DirEntry) int { return strings.Compare(a.Name(), b.Name()) })
	return out, nil
}

func (s *strictFS) MkdirAll(path string, _ fs.FileMode) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for p := filepath.Clean(path); !s.dirs[p]; p = filepath.Dir(p) {
		s.dirs[p] = true
	}
	return nil
}

func (s *strictFS) Stat(name string) (fs.FileInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	name = filepath.Clean(name)
	if n, ok := s.files[name]; ok {
		return memInfo{name: filepath.Base(name), size: int64(len(n.data))}, nil
	}
	if s.dirs[name] {
		return memInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, notExist("stat", name)
}

// memFile is an open strictFS file. Writes append; Read reads from its
// own offset.
type memFile struct {
	fs   *strictFS
	node *memNode
	name string
	off  int
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.off >= len(f.node.data) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[f.off:])
	f.off += n
	return n, nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("strictfs: read of %s at negative offset %d", f.name, off)
	}
	if off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.node.data = append(f.node.data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.node.synced = len(f.node.data)
	return nil
}

func (f *memFile) Close() error { return nil }

func (f *memFile) Stat() (fs.FileInfo, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return memInfo{name: filepath.Base(f.name), size: int64(len(f.node.data))}, nil
}

type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}

// crashKey and crashValue are the i-th write of the crash tests.
func crashKey(i int) []byte   { return []byte(fmt.Sprintf("key%05d", i)) }
func crashValue(i int) []byte { return []byte(fmt.Sprintf("value%05d", i)) }

func putRange(t *testing.T, db *DB, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := db.Put(crashKey(i), crashValue(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// crashAndReopen cuts the store's disk back to what it synced, stops the
// crashed store and opens the store that disk holds.
func crashAndReopen(t *testing.T, sfs *strictFS, db *DB, opts Options) *DB {
	t.Helper()
	disk := sfs.Crash()
	_ = db.Close() // writes to the crashed process's disk only
	db, err := open(disk, "db", opts)
	if err != nil {
		t.Fatalf("reopen after a crash: %v", err)
	}
	t.Cleanup(func() { _ = db.Close() })
	return db
}

// present reports, for writes 0..n-1, whether each reads back.
func present(t *testing.T, db *DB, n int) []bool {
	t.Helper()
	got := make([]bool, n)
	for i := range got {
		v, err := db.Get(crashKey(i))
		switch {
		case errors.Is(err, ErrNotFound):
		case err != nil:
			t.Fatalf("Get(%s): %v", crashKey(i), err)
		case string(v) != string(crashValue(i)):
			t.Fatalf("Get(%s) = %q, want %q", crashKey(i), v, crashValue(i))
		default:
			got[i] = true
		}
	}
	return got
}

// TestCrashAfterFlushKeepsTheFlush: a flush syncs its table and then its
// MANIFEST edit, and the CURRENT that names the MANIFEST was synced when
// the store opened, so a power cut right after Flush returns loses none
// of the flushed keys. Were CURRENT not synced, a crash after Open would
// bring back an empty CURRENT, and the store would not open.
//
// Nothing here merges before the crash: compaction outputs are closed
// without a Sync, the durability hole DESIGN.md ("How the store reaches
// the disk") lists, so a crash after a merge may lose its tables.
func TestCrashAfterFlushKeepsTheFlush(t *testing.T) {
	sfs := newStrictFS()
	db, err := open(sfs, "db", Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	putRange(t, db, 0, n)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db = crashAndReopen(t, sfs, db, Options{})
	for i, ok := range present(t, db, n) {
		if !ok {
			t.Fatalf("flushed key %s lost to a crash after Flush", crashKey(i))
		}
	}
}

// TestSyncedWritesSurviveCrash: under SyncWrites a Put returns only once
// its WAL record is synced, so every acknowledged write survives a crash,
// those a flush moved into a table and those still in the log alike.
func TestSyncedWritesSurviveCrash(t *testing.T) {
	opts := Options{SyncWrites: true}
	sfs := newStrictFS()
	db, err := open(sfs, "db", opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	putRange(t, db, 0, n/2)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	putRange(t, db, n/2, n)
	db = crashAndReopen(t, sfs, db, opts)
	for i, ok := range present(t, db, n) {
		if !ok {
			t.Fatalf("acknowledged write %s lost under SyncWrites", crashKey(i))
		}
	}
}

// TestUnsyncedWritesSurviveAsAPrefix: without SyncWrites a crash may lose
// acknowledged writes, but only from the end: the writes that come back
// are a prefix of those made, in order, and at least what a flush made
// durable. Reopening reports no error.
func TestUnsyncedWritesSurviveAsAPrefix(t *testing.T) {
	sfs := newStrictFS()
	db, err := open(sfs, "db", Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n, flushed = 300, 100
	putRange(t, db, 0, flushed)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	putRange(t, db, flushed, n)
	db = crashAndReopen(t, sfs, db, Options{})
	got := present(t, db, n)
	prefix := 0
	for prefix < n && got[prefix] {
		prefix++
	}
	if i := slices.Index(got[prefix:], true); i >= 0 {
		t.Fatalf("write %d came back after write %d was lost", prefix+i, prefix)
	}
	if prefix < flushed {
		t.Fatalf("%d writes came back, fewer than the %d flushed", prefix, flushed)
	}
}

// syncCountFS is a vfs.FS over another that counts, by kind of file, the
// Syncs of the files it creates.
type syncCountFS struct {
	vfs.FS
	mu    sync.Mutex
	syncs map[fileKind]int
}

func (c *syncCountFS) Create(name string) (vfs.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	kind, _ := parseFileName(filepath.Base(name))
	return &syncCountFile{File: f, fs: c, kind: kind}, nil
}

type syncCountFile struct {
	vfs.File
	fs   *syncCountFS
	kind fileKind
}

func (f *syncCountFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.syncs[f.kind]++
	f.fs.mu.Unlock()
	return f.File.Sync()
}

// TestSyncCountIsTheSyncSites: routing the store through the vfs seam
// moves no fsync. A scripted fill (puts, two flushes, an L0 merge, a
// checkpoint, Close) syncs each kind of file exactly as often as the
// sync sites the store had before the seam, plus one sync of CURRENT per
// MANIFEST roll, which is new. Each expected term is computed from the
// store's own counts.
func TestSyncCountIsTheSyncSites(t *testing.T) {
	for _, syncWrites := range []bool{false, true} {
		t.Run(fmt.Sprintf("SyncWrites=%v", syncWrites), func(t *testing.T) {
			cfs := &syncCountFS{FS: newStrictFS(), syncs: make(map[fileKind]int)}
			db, err := open(cfs, "db", Options{SyncWrites: syncWrites})
			if err != nil {
				t.Fatal(err)
			}
			putRange(t, db, 0, 200)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			putRange(t, db, 100, 300)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.CompactLevel(0); err != nil {
				t.Fatal(err)
			}
			copied := db.vs.Current().TotalFiles()
			if err := db.Checkpoint("ckpt"); err != nil {
				t.Fatal(err)
			}
			st := db.Stats()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if st.Flushes != 2 || st.Compactions+st.TrivialMoves != 1 {
				t.Fatalf("script ran %d flushes and %d merges + %d moves, want 2 and 1",
					st.Flushes, st.Compactions, st.TrivialMoves)
			}

			// Two MANIFEST rolls: the store's Open and the checkpoint's.
			const rolls = 2
			var walSyncs int64 = 1 // DB.Close syncs the live log
			if syncWrites {
				walSyncs += st.GroupCommits // DB.write syncs each commit
			}
			want := map[fileKind]int{
				// A flush syncs its table (DB.buildTable) and a checkpoint
				// each copy (DB.copyFile); merge outputs are not synced.
				kindTable: int(st.Flushes) + copied,
				// A roll syncs its snapshot (rollManifestLocked), and
				// LogAndApply each edit: one per flush, merge or move, and
				// the checkpoint's.
				kindManifest: rolls + int(st.Flushes+st.Compactions+st.TrivialMoves) + 1,
				kindWAL:      int(walSyncs),
				// New: each roll syncs CURRENT's temp file before the rename.
				kindTemp: rolls,
			}
			cfs.mu.Lock()
			defer cfs.mu.Unlock()
			names := map[fileKind]string{kindTable: "table", kindManifest: "MANIFEST", kindWAL: "log", kindTemp: "CURRENT temp"}
			for kind, n := range want {
				if cfs.syncs[kind] != n {
					t.Errorf("%s files synced %d times, want %d", names[kind], cfs.syncs[kind], n)
				}
			}
			if len(cfs.syncs) != len(want) {
				t.Errorf("synced kinds %v, want %v", cfs.syncs, want)
			}
		})
	}
}
