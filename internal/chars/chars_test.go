package chars

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetAddContains(t *testing.T) {
	var s Set
	if s.Contains('a') {
		t.Fatal("empty set should not contain 'a'")
	}
	s.Add('a')
	if !s.Contains('a') {
		t.Fatal("set should contain 'a' after Add")
	}
	if s.Contains('b') {
		t.Fatal("set should not contain 'b'")
	}
	s.Remove('a')
	if s.Contains('a') {
		t.Fatal("set should not contain 'a' after Remove")
	}
}

func TestSetLen(t *testing.T) {
	s := NewSet("abc")
	if got := s.Len(); got != 3 {
		t.Fatalf("Len() = %d, want 3", got)
	}
	s.Add('a') // duplicate
	if got := s.Len(); got != 3 {
		t.Fatalf("Len() after duplicate Add = %d, want 3", got)
	}
}

func TestSetEmpty(t *testing.T) {
	var s Set
	if !s.Empty() {
		t.Fatal("zero Set should be empty")
	}
	s.Add(0)
	if s.Empty() {
		t.Fatal("set containing NUL should not be empty")
	}
}

func TestSetHighBytes(t *testing.T) {
	var s Set
	for _, b := range []byte{0, 63, 64, 127, 128, 191, 192, 255} {
		s.Add(b)
		if !s.Contains(b) {
			t.Errorf("set should contain byte %d", b)
		}
	}
	if got := s.Len(); got != 8 {
		t.Fatalf("Len() = %d, want 8", got)
	}
}

func TestSetUnionIntersectMinus(t *testing.T) {
	a := NewSet("abcd")
	b := NewSet("cdef")
	if got := a.Union(b); !got.Equal(NewSet("abcdef")) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(NewSet("cd")) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b); !got.Equal(NewSet("ab")) {
		t.Errorf("Minus = %v", got)
	}
}

func TestSetSubsetOf(t *testing.T) {
	a := NewSet("ab")
	b := NewSet("abc")
	if !a.SubsetOf(b) {
		t.Error("ab should be subset of abc")
	}
	if b.SubsetOf(a) {
		t.Error("abc should not be subset of ab")
	}
	var empty Set
	if !empty.SubsetOf(a) {
		t.Error("empty set should be subset of anything")
	}
}

func TestSetBytesSorted(t *testing.T) {
	s := NewSet("zax")
	got := s.Bytes()
	want := []byte{'a', 'x', 'z'}
	if string(got) != string(want) {
		t.Fatalf("Bytes() = %q, want %q", got, want)
	}
}

func TestSetString(t *testing.T) {
	s := NewSet(",\n")
	got := s.String()
	want := `{'\n', ','}`
	if got != want {
		t.Fatalf("String() = %s, want %s", got, want)
	}
}

func TestDefaultCandidates(t *testing.T) {
	c := DefaultCandidates()
	for _, b := range []byte{' ', ',', ':', '[', ']', '"', '\t', '|', '='} {
		if !c.Contains(b) {
			t.Errorf("DefaultCandidates should contain %q", b)
		}
	}
	for _, b := range []byte{'a', 'Z', '0', '\n', 0x80} {
		if c.Contains(b) {
			t.Errorf("DefaultCandidates should not contain %q", b)
		}
	}
}

func TestPresent(t *testing.T) {
	data := []byte("alpha, beta: 12\n")
	p := Present(DefaultCandidates(), data)
	if !p.Equal(NewSet(", :")) {
		t.Fatalf("Present = %v, want {' ', ',', ':'}", p)
	}
}

func TestPresentEmptyData(t *testing.T) {
	if p := Present(DefaultCandidates(), nil); !p.Empty() {
		t.Fatalf("Present of empty data = %v, want empty", p)
	}
}

func TestSubsetsCount(t *testing.T) {
	set := NewSet(",.:")
	n := 0
	Subsets(set, func(Set) bool { n++; return true })
	if n != 8 {
		t.Fatalf("Subsets enumerated %d sets, want 2^3 = 8", n)
	}
}

func TestSubsetsFirstIsFull(t *testing.T) {
	set := NewSet(",.:")
	var first Set
	called := false
	Subsets(set, func(s Set) bool {
		if !called {
			first = s
			called = true
		}
		return true
	})
	if !first.Equal(set) {
		t.Fatalf("first subset = %v, want full set %v", first, set)
	}
}

// TestSubsetsGrayAdjacency pins the Gray-code contract the generation
// engine's incremental exhaustive search rides: consecutive subsets
// differ by exactly one character, for every charset width up to the
// exhaustive cap's neighborhood.
func TestSubsetsGrayAdjacency(t *testing.T) {
	for _, members := range []string{"", ",", ",.", ",.:", " ,:;=|", ",.:;=|[]{}"} {
		set := NewSet(members)
		var prev Set
		first := true
		n := 0
		Subsets(set, func(s Set) bool {
			if !first {
				diff := s.Minus(prev).Union(prev.Minus(s))
				if diff.Len() != 1 {
					t.Fatalf("members %q: consecutive subsets %v -> %v differ by %d chars, want 1",
						members, prev, s, diff.Len())
				}
			}
			first = false
			prev = s
			n++
			return true
		})
		if want := 1 << set.Len(); n != want {
			t.Fatalf("members %q: enumerated %d subsets, want %d", members, n, want)
		}
	}
}

func TestSubsetsEarlyStop(t *testing.T) {
	set := NewSet(",.:")
	n := 0
	Subsets(set, func(Set) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("enumerated %d subsets after early stop, want 3", n)
	}
}

func TestSubsetsAllAreSubsets(t *testing.T) {
	set := NewSet(" ,:[]")
	Subsets(set, func(s Set) bool {
		if !s.SubsetOf(set) {
			t.Fatalf("enumerated %v is not a subset of %v", s, set)
		}
		return true
	})
}

// Property: NewSet(s).Contains(b) iff b in s.
func TestQuickNewSetMembership(t *testing.T) {
	f := func(s []byte, b byte) bool {
		set := NewSet(string(s))
		want := false
		for _, c := range s {
			if c == b {
				want = true
			}
		}
		return set.Contains(b) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: union is commutative and contains both operands.
func TestQuickUnion(t *testing.T) {
	f := func(a, b []byte) bool {
		sa, sb := NewSet(string(a)), NewSet(string(b))
		u := sa.Union(sb)
		return u.Equal(sb.Union(sa)) && sa.SubsetOf(u) && sb.SubsetOf(u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Minus then Union restores a superset relationship:
// (a\b) ∪ (a∩b) == a.
func TestQuickMinusIntersectPartition(t *testing.T) {
	f := func(a, b []byte) bool {
		sa, sb := NewSet(string(a)), NewSet(string(b))
		return sa.Minus(sb).Union(sa.Intersect(sb)).Equal(sa)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Len equals the number of distinct bytes.
func TestQuickLen(t *testing.T) {
	f := func(s []byte) bool {
		set := NewSet(string(s))
		distinct := map[byte]bool{}
		for _, b := range s {
			distinct[b] = true
		}
		return set.Len() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetsEnumeratesDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	members := make([]byte, 0)
	cand := DefaultCandidates().Bytes()
	for len(members) < 5 {
		members = append(members, cand[rng.Intn(len(cand))])
	}
	set := NewSet(string(members))
	seen := map[string]bool{}
	Subsets(set, func(s Set) bool {
		k := string(s.Bytes())
		if seen[k] {
			t.Fatalf("subset %v enumerated twice", s)
		}
		seen[k] = true
		return true
	})
	if len(seen) != 1<<set.Len() {
		t.Fatalf("enumerated %d distinct subsets, want %d", len(seen), 1<<set.Len())
	}
}

func TestLineIndexPostings(t *testing.T) {
	lines := [][]byte{[]byte("a,b\n"), []byte("c|d\n"), []byte("e,f|g\n"), []byte("plain\n")}
	ix := BuildLineIndex(len(lines), func(i int) []byte { return lines[i] }, DefaultCandidates())
	if got := ix.Lines(','); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("postings for ',' = %v, want [0 2]", got)
	}
	if got := ix.Lines('|'); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("postings for '|' = %v, want [1 2]", got)
	}
	if got := ix.Lines('x'); len(got) != 0 {
		t.Fatalf("postings for absent char = %v, want empty", got)
	}
}

func TestLineIndexIgnoresNonCandidates(t *testing.T) {
	// '\n' is never a candidate; characters outside the candidate set
	// must not be indexed even when present.
	lines := [][]byte{[]byte("a,b\n")}
	ix := BuildLineIndex(1, func(i int) []byte { return lines[i] }, NewSet(","))
	if got := ix.Lines(','); len(got) != 1 || got[0] != 0 {
		t.Fatalf("postings for ',' = %v, want [0]", got)
	}
	if got := ix.Lines('a'); len(got) != 0 {
		t.Fatalf("postings for non-candidate = %v, want empty", got)
	}
	if got := ix.Lines('\n'); len(got) != 0 {
		t.Fatalf("postings for newline = %v, want empty", got)
	}
}

func TestLineIndexEmpty(t *testing.T) {
	ix := BuildLineIndex(0, func(i int) []byte { panic("no lines") }, DefaultCandidates())
	if got := ix.Lines(','); len(got) != 0 {
		t.Fatalf("empty index has postings: %v", got)
	}
}
