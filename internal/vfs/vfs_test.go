package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteDurable: a fill that succeeds leaves the file whole; one that
// fails leaves no file and returns the fill's error.
func TestWriteDurable(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good")
	err := WriteDurable(Default, good, func(w io.Writer) error {
		_, err := io.WriteString(w, "payload")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(good); err != nil || string(got) != "payload" {
		t.Fatalf("ReadFile = %q, %v; want \"payload\"", got, err)
	}

	bad := filepath.Join(dir, "bad")
	errFill := errors.New("fill failed")
	err = WriteDurable(Default, bad, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half"); err != nil {
			return err
		}
		return errFill
	})
	if !errors.Is(err, errFill) {
		t.Fatalf("WriteDurable = %v, want the fill's error", err)
	}
	if _, err := Default.Stat(bad); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Stat after a failed fill = %v, want fs.ErrNotExist", err)
	}
}
