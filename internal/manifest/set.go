package manifest

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sync"

	"fcae/internal/crc"
	"fcae/internal/vfs"
	"fcae/internal/wal"
)

// Config holds the level-shaping parameters the paper varies (Table IV).
type Config struct {
	// LevelRatio is Size(L_{i+1})/Size(L_i) — paper "leveling ratio",
	// default 10, range [4,16].
	LevelRatio int
	// BaseLevelBytes is the size budget of L1.
	BaseLevelBytes uint64
	// L0CompactionTrigger is the file count that schedules an L0 merge.
	L0CompactionTrigger int
	// MaxOutputFileBytes bounds compaction output tables (paper: ~2 MB).
	MaxOutputFileBytes uint64
	// TieredRuns, when > 0, switches levels >= 1 to tiered (lazy)
	// compaction: each level accumulates up to TieredRuns overlapping
	// sorted runs before a full-level merge pushes one combined run down —
	// the write-optimized scheme (SifrDB, PebblesDB) the paper's 9-input
	// engine targets (§VII-C).
	TieredRuns int
}

// WithDefaults fills unset fields with the paper's defaults. This is the
// one place the level-shape defaults are written; the store's options and
// the simulator derive theirs from it.
func (c Config) WithDefaults() Config {
	if c.LevelRatio <= 0 {
		c.LevelRatio = 10
	}
	if c.BaseLevelBytes == 0 {
		c.BaseLevelBytes = 10 << 20
	}
	if c.L0CompactionTrigger <= 0 {
		c.L0CompactionTrigger = 4
	}
	if c.MaxOutputFileBytes == 0 {
		c.MaxOutputFileBytes = 2 << 20
	}
	return c
}

// MaxBytes returns the byte budget of level (levels >= 1).
func (c Config) MaxBytes(level int) uint64 {
	b := c.BaseLevelBytes
	for l := 1; l < level; l++ {
		b *= uint64(c.LevelRatio)
	}
	return b
}

// VersionSet owns the current version, the MANIFEST log and the file
// number / sequence counters.
type VersionSet struct {
	// fs, dir and cfg are set once in Open and immutable afterwards.
	fs  vfs.FS
	dir string
	cfg Config

	mu sync.Mutex

	current *Version
	// superseded holds the versions LogAndApply has replaced that readers
	// still reference; their tables stay live until the last Unref.
	superseded  []*Version
	manifest    *wal.Writer
	manifestF   vfs.File
	manifestNum uint64

	nextFileNum uint64
	lastSeq     uint64
	logNum      uint64
	// replayedManifest is the file recovery loaded, removed once a fresh
	// snapshot manifest has replaced it.
	replayedManifest string
}

func manifestCRC(t byte, payload []byte) uint32 {
	return crc.Extend(crc.Value([]byte{t}), payload)
}

// CurrentPath returns the CURRENT pointer file path for dir.
func CurrentPath(dir string) string { return filepath.Join(dir, "CURRENT") }

// ManifestPath returns the path of MANIFEST number num.
func ManifestPath(dir string, num uint64) string {
	return filepath.Join(dir, fmt.Sprintf("MANIFEST-%06d", num))
}

// Open recovers (or creates) the version state in dir on fsys.
func Open(fsys vfs.FS, dir string, cfg Config) (*VersionSet, error) {
	vs := &VersionSet{
		fs:          fsys,
		dir:         dir,
		cfg:         cfg.WithDefaults(),
		current:     &Version{},
		nextFileNum: 2,
	}
	currentData, err := readFile(fsys, CurrentPath(dir))
	vs.mu.Lock()
	defer vs.mu.Unlock()
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Fresh database.
	case err != nil:
		return nil, err
	default:
		if err := vs.replayLocked(string(currentData)); err != nil {
			return nil, err
		}
	}
	if err := vs.rollManifestLocked(); err != nil {
		return nil, err
	}
	return vs, nil
}

func readFile(fsys vfs.FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only
	return io.ReadAll(f)
}

// replayLocked loads the manifest named by the CURRENT file contents.
func (vs *VersionSet) replayLocked(name string) error {
	for len(name) > 0 && (name[len(name)-1] == '\n' || name[len(name)-1] == '\r') {
		name = name[:len(name)-1]
	}
	f, err := vs.fs.Open(filepath.Join(vs.dir, name))
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	vs.replayedManifest = name
	r := wal.NewReader(f, manifestCRC)
	v := &Version{}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("manifest %s: %w", name, err)
		}
		edit, err := DecodeEdit(rec)
		if err != nil {
			return err
		}
		if v, err = v.Apply(edit); err != nil {
			return err
		}
		if edit.HasNextFileNum {
			vs.nextFileNum = edit.NextFileNum
		}
		if edit.HasLastSeq {
			vs.lastSeq = edit.LastSeq
		}
		if edit.HasLogNum {
			vs.logNum = edit.LogNum
		}
	}
	vs.current = v
	return nil
}

// rollManifestLocked starts a fresh MANIFEST containing a snapshot of the
// state and atomically repoints CURRENT at it.
func (vs *VersionSet) rollManifestLocked() error {
	num := vs.allocFileNumLocked()
	path := ManifestPath(vs.dir, num)
	f, err := vs.fs.Create(path)
	if err != nil {
		return err
	}
	w := wal.NewWriter(f, manifestCRC)

	snap := &VersionEdit{}
	snap.SetNextFileNum(vs.nextFileNum)
	snap.SetLastSeq(vs.lastSeq)
	snap.SetLogNum(vs.logNum)
	for level, files := range vs.current.Levels {
		for _, meta := range files {
			snap.AddFile(level, meta)
		}
	}
	if err := w.Append(snap.Encode()); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := setCurrent(vs.fs, vs.dir, num); err != nil {
		_ = f.Close()
		return err
	}
	if vs.manifestF != nil {
		// The superseded manifest is deleted next; its close error is moot.
		_ = vs.manifestF.Close()
		_ = vs.fs.Remove(ManifestPath(vs.dir, vs.manifestNum))
	}
	if vs.replayedManifest != "" {
		// The recovery source is superseded by the fresh snapshot.
		_ = vs.fs.Remove(filepath.Join(vs.dir, vs.replayedManifest))
		vs.replayedManifest = ""
	}
	vs.manifest, vs.manifestF, vs.manifestNum = w, f, num
	return nil
}

// setCurrent atomically points CURRENT at manifest num. The pointer is
// made durable before the rename: the caller deletes the manifest it
// replaces next, so a CURRENT lost to a power cut would leave none.
func setCurrent(fsys vfs.FS, dir string, num uint64) error {
	tmp := filepath.Join(dir, fmt.Sprintf("CURRENT.%06d.tmp", num))
	err := vfs.WriteDurable(fsys, tmp, func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "MANIFEST-%06d\n", num)
		return err
	})
	if err != nil {
		return err
	}
	return fsys.Rename(tmp, CurrentPath(dir))
}

// Close releases the manifest file handle.
func (vs *VersionSet) Close() error {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if vs.manifestF != nil {
		err := vs.manifestF.Close()
		vs.manifestF = nil
		return err
	}
	return nil
}

// Current returns the live version for inspecting the level shape. The
// returned value is immutable but pins nothing: a caller that opens the
// tables it names takes it with Ref instead.
func (vs *VersionSet) Current() *Version {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.current
}

// Ref returns the live version with a reference held: until the matching
// Unref, every table it names stays in LiveFileNums even after LogAndApply
// installs a successor.
func (vs *VersionSet) Ref() *Version {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	vs.current.refs++
	return vs.current
}

// Unref drops a reference taken by Ref. It reports true when that was the
// last reference to a superseded version, i.e. when tables may have left
// LiveFileNums and the caller should sweep obsolete files.
func (vs *VersionSet) Unref(v *Version) bool {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	v.refs--
	if v.refs < 0 {
		panic("manifest: Unref without a matching Ref")
	}
	if v.refs > 0 || v == vs.current {
		return false
	}
	for i, s := range vs.superseded {
		if s == v {
			vs.superseded = append(vs.superseded[:i], vs.superseded[i+1:]...)
			break
		}
	}
	return true
}

// Config returns the level configuration.
func (vs *VersionSet) Config() Config { return vs.cfg }

// AllocFileNum reserves and returns a fresh file number.
func (vs *VersionSet) AllocFileNum() uint64 {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.allocFileNumLocked()
}

func (vs *VersionSet) allocFileNumLocked() uint64 {
	n := vs.nextFileNum
	vs.nextFileNum++
	return n
}

// LastSeq returns the newest assigned sequence number.
func (vs *VersionSet) LastSeq() uint64 {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.lastSeq
}

// SetLastSeq advances the sequence counter.
func (vs *VersionSet) SetLastSeq(n uint64) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if n > vs.lastSeq {
		vs.lastSeq = n
	}
}

// LogNum returns the WAL number recorded as durable.
func (vs *VersionSet) LogNum() uint64 {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.logNum
}

// LogAndApply durably logs edit and installs the resulting version.
func (vs *VersionSet) LogAndApply(edit *VersionEdit) error {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if !edit.HasNextFileNum {
		edit.SetNextFileNum(vs.nextFileNum)
	}
	if !edit.HasLastSeq {
		edit.SetLastSeq(vs.lastSeq)
	}
	next, err := vs.current.Apply(edit)
	if err != nil {
		return err
	}
	if err := vs.manifest.Append(edit.Encode()); err != nil {
		return err
	}
	if err := vs.manifestF.Sync(); err != nil {
		return err
	}
	if vs.current.refs > 0 {
		vs.superseded = append(vs.superseded, vs.current)
	}
	vs.current = next
	if edit.HasLogNum {
		vs.logNum = edit.LogNum
	}
	if edit.HasLastSeq && edit.LastSeq > vs.lastSeq {
		vs.lastSeq = edit.LastSeq
	}
	return nil
}

// LiveFileNums returns the numbers of all tables referenced by the current
// version or by a superseded version a reader still holds, used by garbage
// collection of obsolete files.
func (vs *VersionSet) LiveFileNums() map[uint64]bool {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	live := make(map[uint64]bool)
	mark := func(v *Version) {
		for _, files := range v.Levels {
			for _, f := range files {
				live[f.Num] = true
			}
		}
	}
	mark(vs.current)
	for _, v := range vs.superseded {
		mark(v)
	}
	return live
}
