package iter

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"fcae/internal/keys"
)

func ik(user string, seq uint64) []byte {
	return keys.MakeInternal(nil, []byte(user), seq, keys.KindSet)
}

func slice(entries ...string) *Slice {
	var ks, vs [][]byte
	for i, u := range entries {
		ks = append(ks, ik(u, uint64(1000-i)))
		vs = append(vs, []byte("v-"+u))
	}
	return NewSlice(ks, vs)
}

func collect(m *Merging) []string {
	var out []string
	for ; m.Valid(); m.Next() {
		out = append(out, string(keys.UserKey(m.Key())))
	}
	return out
}

func TestMergingTwoStreams(t *testing.T) {
	t.Parallel()
	m := NewMerging(slice("a", "c", "e"), slice("b", "d", "f"))
	m.SeekToFirst()
	got := collect(m)
	want := []string{"a", "b", "c", "d", "e", "f"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestMergingEmptyChildren(t *testing.T) {
	t.Parallel()
	m := NewMerging(slice(), slice("a"), slice())
	m.SeekToFirst()
	if got := collect(m); len(got) != 1 || got[0] != "a" {
		t.Fatalf("got %v", got)
	}
	empty := NewMerging()
	empty.SeekToFirst()
	if empty.Valid() {
		t.Fatal("merge of nothing is valid")
	}
}

func TestMergingSeekGE(t *testing.T) {
	t.Parallel()
	m := NewMerging(slice("a", "c", "e"), slice("b", "d", "f"))
	m.SeekGE(ik("c", keys.MaxSeq))
	if got := collect(m); len(got) != 4 || got[0] != "c" {
		t.Fatalf("SeekGE(c) = %v", got)
	}
}

func TestMergingValuesTrackKeys(t *testing.T) {
	t.Parallel()
	m := NewMerging(slice("a", "c"), slice("b"))
	m.SeekToFirst()
	for ; m.Valid(); m.Next() {
		want := "v-" + string(keys.UserKey(m.Key()))
		if string(m.Value()) != want {
			t.Fatalf("value %q for key %q", m.Value(), m.Key())
		}
	}
}

func TestMergingSameUserKeyOrdersBySeq(t *testing.T) {
	t.Parallel()
	a := NewSlice([][]byte{ik("k", 5)}, [][]byte{[]byte("old")})
	b := NewSlice([][]byte{ik("k", 9)}, [][]byte{[]byte("new")})
	m := NewMerging(a, b)
	m.SeekToFirst()
	if string(m.Value()) != "new" {
		t.Fatal("newer sequence must come first")
	}
	m.Next()
	if string(m.Value()) != "old" {
		t.Fatal("older sequence second")
	}
}

func TestMergingRandomizedAgainstSort(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		var all []string
		var children []Iterator
		n := 1 + rng.Intn(6)
		seq := uint64(1)
		for c := 0; c < n; c++ {
			var ks, vs [][]byte
			var users []string
			for i := 0; i < rng.Intn(50); i++ {
				users = append(users, fmt.Sprintf("key%04d", rng.Intn(500)))
			}
			sort.Strings(users)
			prev := ""
			for _, u := range users {
				if u == prev {
					continue // unique user keys per child
				}
				prev = u
				ks = append(ks, ik(u, seq))
				vs = append(vs, []byte(u))
				all = append(all, u)
				seq++
			}
			children = append(children, NewSlice(ks, vs))
		}
		sort.Strings(all)
		m := NewMerging(children...)
		m.SeekToFirst()
		got := collect(m)
		if len(got) != len(all) {
			t.Fatalf("trial %d: %d entries, want %d", trial, len(got), len(all))
		}
		for i := range all {
			if got[i] != all[i] {
				t.Fatalf("trial %d: position %d: %q != %q", trial, i, got[i], all[i])
			}
		}
	}
}

func TestSliceSeekGE(t *testing.T) {
	t.Parallel()
	s := slice("b", "d")
	s.SeekGE(ik("c", keys.MaxSeq))
	if !s.Valid() || string(keys.UserKey(s.Key())) != "d" {
		t.Fatalf("SeekGE landed on %q", s.Key())
	}
	s.SeekGE(ik("z", keys.MaxSeq))
	if s.Valid() {
		t.Fatal("SeekGE past end valid")
	}
}

func reverseCollect(m *Merging) []string {
	var out []string
	for ; m.Valid(); m.Prev() {
		out = append(out, string(keys.UserKey(m.Key())))
	}
	return out
}

func TestMergingBackward(t *testing.T) {
	t.Parallel()
	m := NewMerging(slice("a", "c", "e"), slice("b", "d", "f"))
	m.SeekToLast()
	got := reverseCollect(m)
	want := []string{"f", "e", "d", "c", "b", "a"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("backward merge = %v, want %v", got, want)
		}
	}
}

func TestMergingDirectionSwitch(t *testing.T) {
	t.Parallel()
	m := NewMerging(slice("a", "c", "e"), slice("b", "d", "f"))
	m.SeekToFirst() // a
	m.Next()        // b
	m.Next()        // c
	if got := string(keys.UserKey(m.Key())); got != "c" {
		t.Fatalf("position = %q", got)
	}
	m.Prev() // b
	if got := string(keys.UserKey(m.Key())); got != "b" {
		t.Fatalf("Prev after Next = %q", got)
	}
	m.Next() // c again
	if got := string(keys.UserKey(m.Key())); got != "c" {
		t.Fatalf("Next after Prev = %q", got)
	}
	m.Prev()
	m.Prev() // a
	if got := string(keys.UserKey(m.Key())); got != "a" {
		t.Fatalf("double Prev = %q", got)
	}
	m.Prev()
	if m.Valid() {
		t.Fatal("Prev past the beginning must invalidate")
	}
}

// TestMergingRandomWalkMatchesModel drives Merging beside a sorted-slice
// model through random SeekGE / SeekToFirst / SeekToLast / Next / Prev
// walks: any number of children (some empty, some sharing user keys at
// different sequences), direction switches at every position, walks off
// both ends, and children running out while others still have entries.
func TestMergingRandomWalkMatchesModel(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		type entry struct{ key, val []byte }
		var model []entry
		var children []Iterator
		seq := uint64(1)
		for c, n := 0, rng.Intn(10); c < n; c++ {
			var ks, vs [][]byte
			size := 0
			if rng.Intn(4) > 0 { // one child in four is empty
				size = 1 + rng.Intn(30)
			}
			users := map[int]bool{}
			for i := 0; i < size; i++ {
				users[rng.Intn(60)] = true
			}
			var sorted []int
			for u := range users {
				sorted = append(sorted, u)
			}
			sort.Ints(sorted)
			for _, u := range sorted {
				k := ik(fmt.Sprintf("key%04d", u), seq)
				v := []byte(fmt.Sprintf("v%d@%d", u, seq))
				seq++
				ks, vs = append(ks, k), append(vs, v)
				model = append(model, entry{k, v})
			}
			children = append(children, NewSlice(ks, vs))
		}
		sort.Slice(model, func(i, j int) bool { return keys.Compare(model[i].key, model[j].key) < 0 })

		m := NewMerging(children...)
		pos := -1 // model position; outside [0, len) means invalid
		check := func(op string) {
			t.Helper()
			valid := pos >= 0 && pos < len(model)
			if m.Valid() != valid {
				t.Fatalf("trial %d after %s: Valid = %v, model position %d of %d", trial, op, m.Valid(), pos, len(model))
			}
			if !valid {
				return
			}
			if !bytes.Equal(m.Key(), model[pos].key) || !bytes.Equal(m.Value(), model[pos].val) {
				t.Fatalf("trial %d after %s: at %q=%q, model has %q=%q", trial, op, m.Key(), m.Value(), model[pos].key, model[pos].val)
			}
		}
		if m.Valid() {
			t.Fatalf("trial %d: valid before any positioning call", trial)
		}
		for step := 0; step < 300; step++ {
			valid := pos >= 0 && pos < len(model)
			switch op := rng.Intn(12); {
			case op == 0:
				m.SeekToFirst()
				pos = 0
				check("SeekToFirst")
			case op == 1:
				m.SeekToLast()
				pos = len(model) - 1
				check("SeekToLast")
			case op == 2:
				target := ik(fmt.Sprintf("key%04d", rng.Intn(62)), uint64(rng.Intn(int(seq)+1)))
				m.SeekGE(target)
				pos = sort.Search(len(model), func(i int) bool { return keys.Compare(model[i].key, target) >= 0 })
				check("SeekGE")
			case op < 8:
				m.Next() // a no-op when invalid
				if valid {
					pos++
				}
				check("Next")
			default:
				m.Prev()
				if valid {
					pos--
				}
				check("Prev")
			}
		}
		if err := m.Error(); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkMergingNext is the Comparer stage alone: one Next of a k-way
// merge over in-memory children with 24-byte internal keys, at the fan-in
// of a typical software job (4) and of the 9-input engine.
func BenchmarkMergingNext(b *testing.B) {
	for _, fanIn := range []int{4, 9} {
		b.Run(fmt.Sprintf("children=%d", fanIn), func(b *testing.B) {
			const perChild = 10_000
			children := make([]Iterator, fanIn)
			for c := range children {
				ks := make([][]byte, perChild)
				vs := make([][]byte, perChild)
				for i := range ks {
					ks[i] = ik(fmt.Sprintf("%016d", i*fanIn+c), uint64(i+1))
					vs[i] = ks[i][:8]
				}
				children[c] = NewSlice(ks, vs)
			}
			m := NewMerging(children...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !m.Valid() {
					m.SeekToFirst()
				}
				benchSink = m.Key()
				m.Next()
			}
		})
	}
}

var benchSink []byte

// TestMergingReset: a Merging re-pointed at other children, from wherever
// its last walk stopped and in whichever direction, merges them as a new
// one would, and the zero Merging may be Reset.
func TestMergingReset(t *testing.T) {
	t.Parallel()
	var m Merging
	m.Reset([]Iterator{slice("a", "c", "e", "g"), slice("b", "d", "f")})
	if m.Valid() {
		t.Fatal("valid straight after Reset")
	}
	m.Next() // a no-op until the merge is positioned
	m.SeekToLast()
	m.Prev() // mid-walk, in reverse
	if !m.Valid() || string(keys.UserKey(m.Key())) != "f" {
		t.Fatal("walk went wrong")
	}
	m.Reset([]Iterator{slice("x"), slice("w", "y"), slice("v")})
	if m.Valid() {
		t.Fatal("valid straight after the second Reset")
	}
	m.SeekToFirst()
	if got := collect(&m); fmt.Sprint(got) != "[v w x y]" {
		t.Fatalf("after Reset: %v", got)
	}
}
