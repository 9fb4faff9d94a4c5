// Package corruption declares the one error class every "these stored
// bytes are damaged" sentinel of the store belongs to. It imports nothing
// from the module, so the format packages (wal, manifest, sstable, lsm)
// can each tag their own sentinel with it.
package corruption

import "errors"

// Err is the class; the public package exports it as fcae.ErrCorruption.
var Err = errors.New("fcae: stored data is corrupt")

// New returns a distinct sentinel error reading msg for which
// errors.Is(err, Err) holds.
func New(msg string) error { return &sentinel{msg} }

type sentinel struct{ msg string }

func (e *sentinel) Error() string { return e.msg }
func (e *sentinel) Unwrap() error { return Err }
