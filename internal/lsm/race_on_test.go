//go:build race

package lsm

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// is put into it, so tests that count what a warm pool saves skip.
const raceEnabled = true
