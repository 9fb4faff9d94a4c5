package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fcae/internal/corruption"
	"fcae/internal/wal"
)

const (
	olderKeys = 200 // ~1 KiB records: seven 32 KiB blocks
	newerKeys = 50  // two blocks
)

func logKey(log string, i int) []byte { return []byte(fmt.Sprintf("%s%04d", log, i)) }

func logValue(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 1000) }

// twoLiveLogs leaves a store with no table and two logs to replay, as a
// crash after a memtable rotation and before its flush does: the store's
// own log holding a0000..a0199, and a newer one holding b0000..b0049.
func twoLiveLogs(t *testing.T) (dir string, older, newer uint64) {
	t.Helper()
	dir = t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < olderKeys; i++ {
		if err := db.Put(logKey("a", i), logValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	older = db.walNum
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	newer = older + 100 // clear of what the next Open allocates
	f, err := os.Create(walPath(dir, newer))
	if err != nil {
		t.Fatal(err)
	}
	w := wal.NewWriter(f, walCRC)
	for i := 0; i < newerKeys; i++ {
		var b Batch
		b.Put(logKey("b", i), logValue(i))
		if err := w.Append(b.seal(uint64(olderKeys + 1 + i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, older, newer
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[off] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// countKeys reports how many of the first n keys of a log are readable,
// and fails on a key with the wrong value or a gap in the prefix.
func countKeys(t *testing.T, db *DB, log string, n int) int {
	t.Helper()
	got := 0
	for i := 0; i < n; i++ {
		v, err := db.Get(logKey(log, i))
		if errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil || !bytes.Equal(v, logValue(i)) {
			t.Fatalf("%s: Get = %d bytes, %v", logKey(log, i), len(v), err)
		}
		if got != i {
			t.Fatalf("%s is readable but %d keys before it are not", logKey(log, i), i-got)
		}
		got++
	}
	return got
}

// TestMidLogDamageFailsOpen: a flipped byte in the older of two live logs
// is not a torn tail — whole, acknowledged records follow it — so Open
// must fail naming the log, not replay around it. Repair then keeps the
// records ahead of the damage and sets the log aside.
func TestMidLogDamageFailsOpen(t *testing.T) {
	dir, older, _ := twoLiveLogs(t)
	flipByte(t, walPath(dir, older), 40000) // a payload in the second block

	_, err := Open(dir, Options{})
	name := fmt.Sprintf("%06d.log", older)
	if !errors.Is(err, corruption.Err) || !strings.Contains(err.Error(), name) {
		t.Fatalf("Open with %s damaged mid-log: err = %v, want corruption naming the log", name, err)
	}

	if err := Repair(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, name+".corrupt")); err != nil {
		t.Fatalf("damaged log not set aside: %v", err)
	}
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Repair: %v", err)
	}
	defer db.Close()
	if got := countKeys(t, db, "b", newerKeys); got != newerKeys {
		t.Errorf("newer log: %d of %d keys after Repair", got, newerKeys)
	}
	// Records take 1028 bytes, and one fragment header more once the first
	// spans a block: byte 40000 lies in record 38.
	if got := countKeys(t, db, "a", olderKeys); got != 38 {
		t.Errorf("older log: %d keys kept, want the 38 ahead of the damage", got)
	}
}

// TestOlderLogTornEnd: without a sync on rotation a crash can tear the
// retiring log's end while the newer log survives, so a torn end replays
// to the last whole record in any log, not only the newest.
func TestOlderLogTornEnd(t *testing.T) {
	dir, older, _ := twoLiveLogs(t)
	path := walPath(dir, older)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-500); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with a torn older log: %v", err)
	}
	defer db.Close()
	if got := countKeys(t, db, "a", olderKeys); got != olderKeys-1 {
		t.Errorf("older log: %d keys, want all but the torn last", got)
	}
	if got := countKeys(t, db, "b", newerKeys); got != newerKeys {
		t.Errorf("newer log: %d of %d keys", got, newerKeys)
	}
}

// TestNewestLogDamage: in the newest log, damage with an intact record
// after it fails Open; a torn end is what a crash leaves and replays to
// the last whole record.
func TestNewestLogDamage(t *testing.T) {
	t.Run("flipped with a block after it", func(t *testing.T) {
		dir, _, newer := twoLiveLogs(t)
		flipByte(t, walPath(dir, newer), 1000)
		if _, err := Open(dir, Options{}); !errors.Is(err, corruption.Err) {
			t.Fatalf("Open = %v, want corruption", err)
		}
	})
	t.Run("torn end", func(t *testing.T) {
		dir, _, newer := twoLiveLogs(t)
		path := walPath(dir, newer)
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, st.Size()-500); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open with a torn newest log: %v", err)
		}
		defer db.Close()
		if got := countKeys(t, db, "a", olderKeys); got != olderKeys {
			t.Errorf("older log: %d of %d keys", got, olderKeys)
		}
		if got := countKeys(t, db, "b", newerKeys); got != newerKeys-1 {
			t.Errorf("newer log: %d keys, want all but the torn last", got)
		}
	})
}
