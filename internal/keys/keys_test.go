package keys

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMakeInternalRoundTrip(t *testing.T) {
	t.Parallel()
	cases := []struct {
		user string
		seq  uint64
		kind Kind
	}{
		{"", 0, KindDelete},
		{"a", 1, KindSet},
		{"hello", 12345, KindSet},
		{"\xff\xff", MaxSeq, KindDelete},
	}
	for _, c := range cases {
		ik := MakeInternal(nil, []byte(c.user), c.seq, c.kind)
		if got := string(UserKey(ik)); got != c.user {
			t.Errorf("UserKey(%q@%d) = %q", c.user, c.seq, got)
		}
		seq, kind := DecodeTrailer(ik)
		if seq != c.seq || kind != c.kind {
			t.Errorf("DecodeTrailer(%q@%d:%v) = %d, %v", c.user, c.seq, c.kind, seq, kind)
		}
	}
}

func TestCompareOrdersUserKeyAscending(t *testing.T) {
	t.Parallel()
	a := MakeInternal(nil, []byte("aaa"), 5, KindSet)
	b := MakeInternal(nil, []byte("bbb"), 5, KindSet)
	if Compare(a, b) >= 0 {
		t.Fatal("aaa should sort before bbb")
	}
	if Compare(b, a) <= 0 {
		t.Fatal("bbb should sort after aaa")
	}
	if Compare(a, a) != 0 {
		t.Fatal("equal keys must compare 0")
	}
}

func TestCompareOrdersSeqDescending(t *testing.T) {
	t.Parallel()
	newer := MakeInternal(nil, []byte("k"), 10, KindSet)
	older := MakeInternal(nil, []byte("k"), 3, KindSet)
	if Compare(newer, older) >= 0 {
		t.Fatal("newer sequence must sort first")
	}
}

func TestCompareDeleteVsSetSameSeq(t *testing.T) {
	t.Parallel()
	del := MakeInternal(nil, []byte("k"), 7, KindDelete)
	set := MakeInternal(nil, []byte("k"), 7, KindSet)
	// Set (kind=1) packs to a larger trailer, so it sorts first.
	if Compare(set, del) >= 0 {
		t.Fatal("set should sort before delete at equal seq")
	}
}

func TestSeparatorProperties(t *testing.T) {
	t.Parallel()
	f := func(a, b []byte) bool {
		if bytes.Compare(a, b) >= 0 {
			a, b = b, a
		}
		if bytes.Equal(a, b) {
			return true
		}
		sep := Separator(nil, a, b)
		return bytes.Compare(sep, a) >= 0 && bytes.Compare(sep, b) < 0 && len(sep) <= len(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSeparatorShortens(t *testing.T) {
	t.Parallel()
	// Both append: what dst already holds stays in front.
	sep := Separator([]byte("dst|"), []byte("abcdefgh"), []byte("abzzz"))
	if want := "dst|abd"; string(sep) != want {
		t.Fatalf("Separator = %q, want %q", sep, want)
	}
	if got, want := Successor(sep, []byte("\xffq")), "dst|abd\xffr"; string(got) != want {
		t.Fatalf("Successor = %q, want %q", got, want)
	}
}

func TestSuccessorProperties(t *testing.T) {
	t.Parallel()
	f := func(a []byte) bool {
		s := Successor(nil, a)
		return bytes.Compare(s, a) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSuccessorAllFF(t *testing.T) {
	t.Parallel()
	in := []byte{0xff, 0xff}
	if got := Successor(nil, in); !bytes.Equal(got, in) {
		t.Fatalf("Successor(ff ff) = %x", got)
	}
}

func TestRangeContains(t *testing.T) {
	t.Parallel()
	r := Range{Start: []byte("b"), Limit: []byte("d")}
	for _, tc := range []struct {
		k  string
		in bool
	}{{"a", false}, {"b", true}, {"c", true}, {"d", false}, {"e", false}} {
		if got := r.Contains([]byte(tc.k)); got != tc.in {
			t.Errorf("Contains(%q) = %v, want %v", tc.k, got, tc.in)
		}
	}
	unbounded := Range{Start: []byte("b")}
	if !unbounded.Contains([]byte("zzzz")) {
		t.Error("unbounded range should contain large keys")
	}
}

func TestRangeOverlaps(t *testing.T) {
	t.Parallel()
	ab := Range{Start: []byte("a"), Limit: []byte("b")}
	bc := Range{Start: []byte("b"), Limit: []byte("c")}
	ac := Range{Start: []byte("a"), Limit: []byte("c")}
	if ab.Overlaps(bc) {
		t.Error("adjacent half-open ranges must not overlap")
	}
	if !ab.Overlaps(ac) || !bc.Overlaps(ac) {
		t.Error("contained ranges must overlap")
	}
	inf := Range{Start: []byte("a")}
	if !inf.Overlaps(bc) {
		t.Error("unbounded range overlaps everything above its start")
	}
}

func TestParse(t *testing.T) {
	t.Parallel()
	ik := MakeInternal(nil, []byte("user"), 42, KindSet)
	p, ok := Parse(ik)
	if !ok || string(p.User) != "user" || p.Seq != 42 || p.Kind != KindSet {
		t.Fatalf("Parse = %+v, %v", p, ok)
	}
	if _, ok := Parse([]byte("short")); ok {
		t.Fatal("Parse must reject short keys")
	}
}

func TestCompareLookupSkipsNewerEntries(t *testing.T) {
	t.Parallel()
	// A Get at snapshot seq=5 must land on the entry with seq<=5.
	lookup := MakeInternal(nil, []byte("k"), 5, KindSet)
	newer := MakeInternal(nil, []byte("k"), 9, KindSet)
	older := MakeInternal(nil, []byte("k"), 3, KindSet)
	if Compare(newer, lookup) >= 0 {
		t.Fatal("newer entry must sort before the lookup key")
	}
	if Compare(older, lookup) <= 0 {
		t.Fatal("older entry must sort after the lookup key")
	}
}
