package lsm

import (
	"fmt"

	"fcae/internal/vfs"
)

// tableFile is what the table cache reads a table through: the mapping
// openTable made of it, or the open file where tables are not mapped. It
// is io.ReaderAt and io.Closer, spelled out so that fcaelint resolves a
// call through it to the types that implement both, not to every Close.
type tableFile interface {
	ReadAt(p []byte, off int64) (n int, err error)
	Close() error
}

// openTable opens the table at path on fsys for the table cache's small
// random reads. It returns the file with its size and the bytes of it that
// are mapped into memory: all of an operating-system file on 64-bit unix,
// where the descriptor is closed at once and a block read is a copy out of
// the mapping, and none elsewhere, where a block read is a ReadAt.
func openTable(fsys vfs.FS, path string) (f tableFile, size, mapped int64, err error) {
	vf, err := fsys.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	st, err := vf.Stat()
	if err != nil {
		_ = vf.Close()
		return nil, 0, 0, err
	}
	size = st.Size()
	if f, mapped, err = mapTable(vf, size); err != nil {
		return nil, 0, 0, fmt.Errorf("lsm: map %s: %w", path, err)
	}
	return f, size, mapped, nil
}
