//go:build unix

package lsm

import (
	"fmt"
	"io"
	"io/fs"
	"runtime/debug"
	"strconv"
	"syscall"

	"fcae/internal/vfs"
)

// mappedFile is a table mapped read-only into memory. ReadAt copies out of
// the mapping, so no slice of it outlives the call, and Close unmaps it:
// the table cache closes a table on its handle's last release, after
// every read through the handle has returned.
type mappedFile struct {
	data   []byte
	closed bool
}

// mapTable maps f, a file with a descriptor, and closes it: the mapping
// does not need it. Only 64-bit hosts map: a 32-bit address space is too
// small to map every table the cache holds, so there f stays the table's
// file, as does a file with no descriptor.
func mapTable(f vfs.File, size int64) (tableFile, int64, error) {
	fd, ok := f.(interface{ Fd() uintptr })
	if !ok || strconv.IntSize != 64 {
		return f, 0, nil
	}
	m := &mappedFile{}
	var err error
	if size > 0 { // mmap refuses a length of zero; an empty table reads as EOF
		m.data, err = syscall.Mmap(int(fd.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	}
	_ = f.Close() // read-only, and the mapping outlives it
	if err != nil {
		return nil, 0, err
	}
	return m, size, nil
}

// ReadAt copies the mapping from off into p, as os.File.ReadAt reads: a
// read that ends past the file returns what there is and io.EOF. A file
// cut short behind the store's back faults on the pages it lost; the
// fault is recovered and reported as io.ErrUnexpectedEOF, the short read
// it stands for, which the table reader turns into corruption.
func (m *mappedFile) ReadAt(p []byte, off int64) (n int, err error) {
	if m.closed {
		return 0, fmt.Errorf("lsm: read of an unmapped table: %w", fs.ErrClosed)
	}
	if off < 0 {
		return 0, fmt.Errorf("lsm: read of a mapped table at negative offset %d", off)
	}
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault {
				panic(r)
			}
			n, err = 0, io.ErrUnexpectedEOF
		}
	}()
	if n = copy(p, m.data[off:]); n < len(p) {
		err = io.EOF
	}
	return n, err
}

// Close unmaps the table. Reads after it fail with fs.ErrClosed.
func (m *mappedFile) Close() error {
	data := m.data
	m.data, m.closed = nil, true
	if data == nil {
		return nil
	}
	return syscall.Munmap(data)
}
