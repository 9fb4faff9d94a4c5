// Package vfs is how the store reaches the disk: packages lsm and manifest
// go through an FS, so a test can hand them one that crashes on cue.
package vfs

import (
	"io"
	"io/fs"
	"os"
)

// File is an open file: the methods of *os.File the store calls. Stat
// gives a table its size.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	Sync() error
	Close() error
	Stat() (fs.FileInfo, error)
}

// FS is a file system: the functions of package os the store calls, with
// their semantics.
type FS interface {
	Create(name string) (File, error)
	Open(name string) (File, error)
	Remove(name string) error
	Rename(oldname, newname string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	MkdirAll(path string, perm fs.FileMode) error
	Stat(name string) (fs.FileInfo, error)
}

// Default is the operating system's file system. Its files are *os.File,
// so a caller that maps a file can ask for its Fd.
var Default FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error)             { return osFile(os.Create(name)) }
func (osFS) Open(name string) (File, error)               { return osFile(os.Open(name)) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Rename(oldname, newname string) error         { return os.Rename(oldname, newname) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }

// osFile keeps a failed open's nil *os.File out of a non-nil File.
func osFile(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

// WriteDurable is the one way a whole file is made durable: it creates
// name on fsys, fills it through fill, syncs it and closes it. A fill that
// fails leaves no file behind.
func WriteDurable(fsys FS, name string, fill func(w io.Writer) error) error {
	f, err := fsys.Create(name)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		_ = f.Close() // the fill's error is the one to report
		_ = fsys.Remove(name)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the sync's error is the one to report
		return err
	}
	return f.Close()
}
