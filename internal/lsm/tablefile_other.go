//go:build !unix

package lsm

import "fcae/internal/vfs"

// mapTable keeps f: tables are mapped on 64-bit unix only, and everywhere
// else a block read is a ReadAt.
func mapTable(f vfs.File, _ int64) (tableFile, int64, error) {
	return f, 0, nil
}
