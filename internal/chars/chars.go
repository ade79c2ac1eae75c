// Package chars implements character-set machinery for Datamaran.
//
// The non-overlapping assumption (Assumption 2 in the paper) splits every
// record into formatting characters (RT-CharSet, drawn from a predefined
// candidate set of special characters) and field-value characters. This
// package provides a compact bitset over byte values, the default
// RT-CharSet-Candidate collection, and helpers to enumerate candidate
// subsets during the generation step.
package chars

import (
	"math/bits"
	"strings"
)

// Set is a bitset over the 256 byte values. The zero value is the empty
// set, ready to use.
type Set struct {
	w [4]uint64
}

// NewSet returns a Set containing exactly the bytes of s.
func NewSet(s string) Set {
	var cs Set
	for i := 0; i < len(s); i++ {
		cs.Add(s[i])
	}
	return cs
}

// Add inserts b into the set.
func (s *Set) Add(b byte) { s.w[b>>6] |= 1 << (b & 63) }

// Remove deletes b from the set.
func (s *Set) Remove(b byte) { s.w[b>>6] &^= 1 << (b & 63) }

// Contains reports whether b is in the set.
func (s Set) Contains(b byte) bool { return s.w[b>>6]&(1<<(b&63)) != 0 }

// Len returns the number of bytes in the set.
func (s Set) Len() int {
	n := 0
	for _, w := range s.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set contains no bytes.
func (s Set) Empty() bool { return s.w == [4]uint64{} }

// Union returns the union of s and t.
func (s Set) Union(t Set) Set {
	var u Set
	for i := range u.w {
		u.w[i] = s.w[i] | t.w[i]
	}
	return u
}

// Intersect returns the intersection of s and t.
func (s Set) Intersect(t Set) Set {
	var u Set
	for i := range u.w {
		u.w[i] = s.w[i] & t.w[i]
	}
	return u
}

// Minus returns the set difference s \ t.
func (s Set) Minus(t Set) Set {
	var u Set
	for i := range u.w {
		u.w[i] = s.w[i] &^ t.w[i]
	}
	return u
}

// Equal reports whether s and t contain the same bytes.
func (s Set) Equal(t Set) bool { return s.w == t.w }

// SubsetOf reports whether every byte of s is in t.
func (s Set) SubsetOf(t Set) bool {
	for i := range s.w {
		if s.w[i]&^t.w[i] != 0 {
			return false
		}
	}
	return true
}

// Bytes returns the members of the set in ascending order.
func (s Set) Bytes() []byte {
	out := make([]byte, 0, s.Len())
	for i := 0; i < 256; i++ {
		if s.Contains(byte(i)) {
			out = append(out, byte(i))
		}
	}
	return out
}

// String renders the set as a sorted, quoted list of characters, e.g.
// `{' ', ',', ':'}`. Intended for diagnostics and test failure messages.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, c := range s.Bytes() {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteByte('\'')
		switch c {
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		case '\'':
			b.WriteString(`\'`)
		case '\\':
			b.WriteString(`\\`)
		default:
			b.WriteByte(c)
		}
		b.WriteByte('\'')
	}
	b.WriteByte('}')
	return b.String()
}

// DefaultCandidates is the predefined RT-CharSet-Candidate collection: the
// ASCII punctuation and whitespace characters that commonly serve as
// formatting characters in log files. The newline character is handled
// separately (it always delimits blocks, per Definition 2.4) and is not a
// member.
func DefaultCandidates() Set {
	return NewSet(" \t!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")
}

// FieldPlaceholder is the field placeholder character 'F' from
// Definition 2.1. Templates are serialized with this byte standing for a
// field value.
const FieldPlaceholder byte = 'F'

// Present returns the subset of candidates that actually occur in data.
// The generation step only enumerates subsets of present characters
// (Table 2's parameter c is Present(...).Len()).
func Present(candidates Set, data []byte) Set {
	var seen Set
	for _, b := range data {
		if candidates.Contains(b) {
			seen.Add(b)
		}
	}
	return seen.Intersect(candidates)
}

// Subsets enumerates every subset of set (2^c of them, the exhaustive
// search of §9.1) and calls fn for each, starting with the full set, in a
// deterministic order where consecutive subsets differ by exactly one
// character (a reflected Gray code over the complement mask). The
// one-character adjacency is what lets the generation engine re-tokenize
// only a single character's postings between consecutive exhaustive
// trials, the same incremental path the greedy search rides. If fn
// returns false the enumeration stops early.
func Subsets(set Set, fn func(Set) bool) {
	members := set.Bytes()
	n := len(members)
	full := 1<<n - 1
	for k := 0; k <= full; k++ {
		// gray(k) and gray(k+1) differ in one bit; complementing
		// against the full mask starts the walk at the full set so
		// higher-coverage charsets (typically the larger ones) are
		// seen first.
		mask := full ^ (k ^ k>>1)
		var s Set
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s.Add(members[i])
			}
		}
		if !fn(s) {
			return
		}
	}
}

// LineIndex is a postings index over a dataset's lines: for every
// candidate character, the ascending list of lines containing it. A
// generation trial that adds or drops one character of its RT-CharSet
// re-tokenizes only that character's postings; no other line's tokens can
// change.
type LineIndex struct {
	postings [256][]int32
}

// BuildLineIndex indexes n lines, fetching each line's bytes through
// line(i) (the textio.Lines access pattern, kept as a callback so this
// package stays independent of the text layer). Only characters in
// candidates are indexed.
func BuildLineIndex(n int, line func(int) []byte, candidates Set) *LineIndex {
	ix := &LineIndex{}
	for i := 0; i < n; i++ {
		var s Set
		for _, b := range line(i) {
			if candidates.Contains(b) {
				s.Add(b)
			}
		}
		for _, b := range s.Bytes() {
			ix.postings[b] = append(ix.postings[b], int32(i))
		}
	}
	return ix
}

// Lines returns the ascending indices of lines containing c. The returned
// slice is shared; callers must not modify it.
func (ix *LineIndex) Lines(c byte) []int32 { return ix.postings[c] }
