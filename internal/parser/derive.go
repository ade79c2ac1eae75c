package parser

import (
	"slices"

	"datamaran/internal/textio"
)

// Unfold names an unfold variant of a template (array unfolding, §4.3.1):
// the template with its array occurrence Arr (see ArrayOcc) replaced by K
// copies of the array's body, separated by its separator and closed by its
// terminator (a full unfold) or, Partial, by K copies each followed by the
// separator and then the array itself (a partial unfold).
type Unfold struct {
	Arr     int
	K       int
	Partial bool
}

// Derivation is how a scan DeriveScan wrote relates to the parent scan it
// was derived from.
type Derivation struct {
	// KeptAll reports that the variant kept every parent record, and so
	// every noise line: each of its columns outside [Lo, Hi) then holds
	// exactly the values of parent column Parent(c), in the same order.
	KeptAll bool
	// Lo and Hi delimit the variant's columns the unfolded array's body
	// columns were split into.
	Lo, Hi int
	// shift is what a column after the unfolded array gained.
	shift int
}

// Parent returns the parent column that variant column c, outside
// [Lo, Hi), was renumbered from.
func (d Derivation) Parent(c int) int {
	if c < d.Lo {
		return c
	}
	return c - d.shift
}

// DeriveScan writes into res the scan v.ScanInto(lines, res) makes, v's
// template being parent's unfolded by u, from from, parent's scan over
// lines. It byte-matches only the lines inside a parent record the variant
// drops. It reports false, res unspecified, when it does not apply and the
// variant must be scanned: when v's stop bytes — its RT-CharSet and the
// newline — are not parent's (a full unfold at one repetition drops the
// separator when nothing else holds it, and fields then run across it), or
// when the unfolded array sits inside another array, holds one, or
// separates with its terminator.
//
// Why it is exact: matching is deterministic and the variant keeps the
// parent's stop bytes, so at any line the variant walks the parent's steps
// and only adds a test: every instance of the unfolded array must repeat
// exactly K times (full) or more than K times (partial). An array outside
// every other array has one instance per record. So at a line where the
// parent's scan starts a record, the variant matches exactly when that
// record's count passes, with the same end and field spans — the fields
// renumbered by their repetition within the array, the array's own
// occurrence dropped (full) or K repetitions shorter (partial). A line the
// parent's scan left as noise, the parent tried and failed, so the variant
// fails there too. Only a line strictly inside a parent record was never
// tried, and the variant reaches one only after dropping that record or
// running past its start; it is matched with v.
func (v *Matcher) DeriveScan(parent *Matcher, u Unfold, lines *textio.Lines, from, res *ScanResult) (Derivation, bool) {
	at, ok := parent.unfoldable(u.Arr)
	if !ok || u.K < 1 || v.stop != parent.stop {
		return Derivation{}, false
	}
	// The body's columns are contiguous: [lo, lo+width).
	lo, width := 0, 0
	for i, o := range parent.prog[:parent.prog[at].end] {
		if o.kind == opField {
			if i < at {
				lo++
			} else {
				width++
			}
		}
	}
	units := u.K // of the body, in the variant, outside any array
	if u.Partial {
		units++ // the array that remains counts as one
	}
	d := Derivation{KeptAll: true, Lo: lo, Hi: lo + units*width, shift: (units - 1) * width}
	keeps := func(arrays []ArrayOcc) bool {
		for _, a := range arrays {
			if a.Arr == u.Arr {
				if u.Partial {
					return a.Reps > u.K
				}
				return a.Reps == u.K
			}
		}
		return false
	}

	res.Records = slices.Grow(res.Records[:0], len(from.Records))
	res.NoiseLines = slices.Grow(res.NoiseLines[:0], len(from.NoiseLines))
	res.Coverage, res.FieldBytes = 0, 0
	res.ar.occs = slices.Grow(res.ar.occs[:0], len(from.ar.occs))
	res.ar.arrays = slices.Grow(res.ar.arrays[:0], len(from.ar.arrays))
	recs := from.Records
	next := 0 // the first parent record that starts at or after line i
	for i, n := 0, lines.N(); i < n; {
		for next < len(recs) && recs[next].StartLine < i {
			next++
		}
		switch {
		case next < len(recs) && recs[next].StartLine == i:
			r := &recs[next]
			if keeps(from.ar.arrays[r.arrLo:r.arrHi]) {
				res.appendUnfolded(from, r, u, lo, width, units)
				i = r.EndLine
				continue
			}
			d.KeptAll = false
		case next > 0 && recs[next-1].EndLine > i:
			if endLine, ok := v.scanLine(lines, i, res); ok {
				i = endLine
				continue
			}
		}
		res.NoiseLines = append(res.NoiseLines, i)
		i++
	}
	return d, true
}

// appendUnfolded appends parent record r of from, renumbered as the
// variant of Unfold u sees it: the unfolded array's body columns are
// [lo, lo+width), and it becomes units copies of them.
func (res *ScanResult) appendUnfolded(from *ScanResult, r *Record, u Unfold, lo, width, units int) {
	fieldLo, arrLo := len(res.ar.occs), len(res.ar.arrays)
	shift := (units - 1) * width
	for _, f := range from.ar.occs[r.fieldLo:r.fieldHi] {
		switch {
		case f.Col < lo:
		case f.Col >= lo+width:
			f.Col += shift
		default:
			// Repetition r lands in unit r, a partial unfold's tail in
			// the array that remains, counted from its start.
			unit := min(f.Rep, units-1)
			f.Col += unit * width
			f.Rep -= unit
		}
		res.FieldBytes += f.End - f.Start
		res.ar.occs = append(res.ar.occs, f)
	}
	for _, a := range from.ar.arrays[r.arrLo:r.arrHi] {
		switch {
		case a.Arr < u.Arr:
		case a.Arr > u.Arr:
			if !u.Partial {
				a.Arr--
			}
		case u.Partial:
			a.Reps -= u.K
		default:
			continue
		}
		res.ar.arrays = append(res.ar.arrays, a)
	}
	res.Records = append(res.Records, Record{
		StartLine: r.StartLine, EndLine: r.EndLine, Start: r.Start, End: r.End,
		fieldLo: fieldLo, fieldHi: len(res.ar.occs),
		arrLo: arrLo, arrHi: len(res.ar.arrays),
	})
	res.Coverage += r.End - r.Start
}

// unfoldable returns the program index of array occurrence arr when
// DeriveScan's argument holds for it: it separates with a byte other than
// its terminator, its body holds no array and no array holds it.
func (m *Matcher) unfoldable(arr int) (int, bool) {
	at := slices.IndexFunc(m.prog, func(o op) bool { return o.kind == opArray && int(o.arr) == arr })
	if at < 0 || m.prog[at].sep == m.prog[at].term {
		return 0, false
	}
	for i, o := range m.prog[:m.prog[at].end] {
		// An array before it that ends past it holds it; one after it,
		// up to its end, is in its body.
		if o.kind == opArray && i != at && (i > at || int(o.end) > at) {
			return 0, false
		}
	}
	return at, true
}
