//go:build !unix

package lsm

import "os"

// mapTable keeps f: tables are mapped on 64-bit unix only, and everywhere
// else a block read is a pread.
func mapTable(f *os.File, _ int64) (tableFile, int64, error) {
	return f, 0, nil
}
