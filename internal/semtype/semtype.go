// Package semtype implements the type-awareness extension the paper calls
// for in its §6.3 limitations: "for such domain-specific datatypes,
// Datamaran should be enhanced with type awareness (e.g., for phone
// numbers, IPs, URLs)".
//
// Datamaran's extraction is deliberately fine-grained — an IP address
// becomes four numeric columns split at the dots. The user study found
// the resulting Concatenate chains tedious. This package detects
// well-known semantic types over *runs of adjacent columns* (using the
// constant template literals between them) and proposes column merges,
// so "192.168.0.1" comes back as one ip column instead of four int
// columns.
package semtype

import (
	"strings"
)

// Kind is a recognized semantic type.
type Kind string

const (
	// KindIP is a dotted-quad IPv4 address.
	KindIP Kind = "ip"
	// KindTime is hh:mm or hh:mm:ss.
	KindTime Kind = "time"
	// KindDate is yyyy-mm-dd, dd/mm/yyyy or yyyy/mm/dd.
	KindDate Kind = "date"
	// KindVersion is a dotted version number (1.2 or 1.2.3...).
	KindVersion Kind = "version"
	// KindURLPath is a /-separated path.
	KindURLPath Kind = "urlpath"
	// KindEmail is local@domain.
	KindEmail Kind = "email"
	// KindUUID is 8-4-4-4-12 hex.
	KindUUID Kind = "uuid"
	// KindInt is a column of decimal integers (scalar classification).
	KindInt Kind = "int"
	// KindFloat is a column of decimal numbers, at least one fractional.
	KindFloat Kind = "float"
	// KindString is the scalar fallback: free text.
	KindString Kind = "string"
)

// Numeric reports whether values of this kind compare as numbers.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// ClassifyValues assigns one scalar kind to a column from its values —
// the per-column type surfaced into the record store's table schemas
// and used by the query engine to pick numeric vs lexicographic
// comparison. Unlike Detect (which reassembles runs of adjacent
// columns), this looks at a single column in isolation: int and float
// need every non-empty value to parse; the named single-column kinds
// (ip, time, date, uuid, ...) apply at the same ≥95% confidence bar as
// Detect; anything else is a string.
func ClassifyValues(values []string) Kind {
	nonEmpty := 0
	ints, floats := 0, 0
	for _, v := range values {
		if v == "" {
			continue
		}
		nonEmpty++
		switch classifyNumber(v) {
		case KindInt:
			ints++
		case KindFloat:
			floats++
		}
		if ints+floats < nonEmpty {
			break // one non-number rules out int and float
		}
	}
	if nonEmpty == 0 {
		return KindString
	}
	if ints == nonEmpty {
		return KindInt
	}
	if ints+floats == nonEmpty {
		return KindFloat
	}
	for _, p := range scalarProbes {
		if confident(values, p.valid) {
			return p.kind
		}
	}
	return KindString
}

// scalarProbes are the named single-column kinds, in precedence order.
var scalarProbes = []struct {
	kind  Kind
	valid func(string) bool
}{
	{KindIP, validIP},
	{KindUUID, validUUID},
	{KindTime, validTime},
	{KindDate, func(s string) bool { return validDateDash(s) || validDateSlash(s) }},
	{KindEmail, validEmail},
	{KindURLPath, validURLPath},
}

// MergeKinds combines the kinds of two value sets of one column (e.g.
// the segments of a table): equal kinds keep, int widens to float, and
// any other mix degrades to string.
func MergeKinds(a, b Kind) Kind {
	switch {
	case a == b:
		return a
	case a == KindInt && b == KindFloat, a == KindFloat && b == KindInt:
		return KindFloat
	default:
		return KindString
	}
}

// classifyNumber reports KindInt, KindFloat or KindString for one value.
func classifyNumber(s string) Kind {
	if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
		s = s[1:]
	}
	if s == "" {
		return KindString
	}
	dot := strings.IndexByte(s, '.')
	if dot < 0 {
		if allDigits(s) && len(s) <= 18 {
			return KindInt
		}
		return KindString
	}
	intPart, fracPart := s[:dot], s[dot+1:]
	if intPart == "" && fracPart == "" {
		return KindString
	}
	if (intPart == "" || allDigits(intPart)) && (fracPart == "" || allDigits(fracPart)) &&
		len(intPart)+len(fracPart) <= 18 {
		return KindFloat
	}
	return KindString
}

// Column is one column's values as seen by the detector.
type Column struct {
	// Name is the column label.
	Name string
	// Values holds the cell values.
	Values []string
}

// Merge is a proposed reassembly of adjacent fine-grained columns into
// one semantic value.
type Merge struct {
	// Kind is the detected semantic type.
	Kind Kind
	// Columns are the adjacent column indices to merge, in order.
	Columns []int
	// Separators are the constant strings between merged columns
	// (len(Columns)-1 entries).
	Separators []string
	// Name suggests a column name for the merged value.
	Name string
	// Confidence is the fraction of rows whose merged value validates.
	Confidence float64
}

// minConfidence is the validation fraction required to propose a merge.
const minConfidence = 0.95

// Detect proposes merges over the table's columns, given the constant
// separator text between adjacent columns (from the structure template's
// literals; empty string when columns are not adjacent in the template).
func Detect(cols []Column, seps []string) []Merge {
	var out []Merge
	used := make([]bool, len(cols))
	// Try longer runs first so ip (4 cols) wins over version (2-3).
	type probe struct {
		kind  Kind
		width int
		sep   string
		valid func(string) bool
	}
	probes := []probe{
		{KindUUID, 5, "-", validUUID},
		{KindIP, 4, ".", validIP},
		{KindDate, 3, "-", validDateDash},
		{KindDate, 3, "/", validDateSlash},
		{KindTime, 3, ":", validTime},
		{KindVersion, 3, ".", validVersion},
		{KindEmail, 2, "@", validEmail},
		{KindTime, 2, ":", validTime},
		{KindVersion, 2, ".", validVersion},
	}
	for _, p := range probes {
		for start := 0; start+p.width <= len(cols); start++ {
			if anyUsed(used, start, p.width) {
				continue
			}
			if !sepsMatch(seps, start, p.width, p.sep) {
				continue
			}
			conf := validateRun(cols, start, p.width, p.sep, p.valid)
			if conf < minConfidence {
				continue
			}
			m := Merge{
				Kind:       p.kind,
				Confidence: conf,
				Name:       string(p.kind),
			}
			for i := 0; i < p.width; i++ {
				m.Columns = append(m.Columns, start+i)
				used[start+i] = true
				if i > 0 {
					m.Separators = append(m.Separators, p.sep)
				}
			}
			out = append(out, m)
		}
	}
	// Single-column detectors (no merge needed, but the type is named).
	for i, c := range cols {
		if used[i] || len(c.Values) == 0 {
			continue
		}
		if frac(c.Values, validIP) >= minConfidence {
			out = append(out, Merge{Kind: KindIP, Columns: []int{i}, Name: "ip", Confidence: frac(c.Values, validIP)})
			used[i] = true
			continue
		}
		if frac(c.Values, validURLPath) >= minConfidence {
			out = append(out, Merge{Kind: KindURLPath, Columns: []int{i}, Name: "urlpath", Confidence: frac(c.Values, validURLPath)})
			used[i] = true
		}
	}
	return out
}

// Apply merges the proposed runs in a table's rows, returning new column
// names and rows. Unmerged columns pass through unchanged.
func Apply(names []string, rows [][]string, merges []Merge) ([]string, [][]string) {
	merged := map[int]*Merge{} // leading column -> merge
	drop := map[int]bool{}
	for i := range merges {
		m := &merges[i]
		if len(m.Columns) < 2 {
			continue
		}
		merged[m.Columns[0]] = m
		for _, c := range m.Columns[1:] {
			drop[c] = true
		}
	}
	var outNames []string
	for i, n := range names {
		if drop[i] {
			continue
		}
		if m, ok := merged[i]; ok {
			outNames = append(outNames, m.Name)
		} else {
			outNames = append(outNames, n)
		}
	}
	outRows := make([][]string, len(rows))
	for r, row := range rows {
		var out []string
		for i := range row {
			if drop[i] {
				continue
			}
			if m, ok := merged[i]; ok {
				var b strings.Builder
				for j, c := range m.Columns {
					if j > 0 {
						b.WriteString(m.Separators[j-1])
					}
					b.WriteString(row[c])
				}
				out = append(out, b.String())
			} else {
				out = append(out, row[i])
			}
		}
		outRows[r] = out
	}
	return outNames, outRows
}

func anyUsed(used []bool, start, width int) bool {
	for i := 0; i < width; i++ {
		if used[start+i] {
			return true
		}
	}
	return false
}

// sepsMatch checks that the constant text between each adjacent pair of
// the run equals sep.
func sepsMatch(seps []string, start, width int, sep string) bool {
	for i := 0; i < width-1; i++ {
		idx := start + i
		if idx >= len(seps) || seps[idx] != sep {
			return false
		}
	}
	return true
}

// validateRun checks the joined values of the run against the validator.
func validateRun(cols []Column, start, width int, sep string, valid func(string) bool) float64 {
	n := len(cols[start].Values)
	if n == 0 {
		return 0
	}
	ok := 0
	for r := 0; r < n; r++ {
		var b strings.Builder
		for i := 0; i < width; i++ {
			if i > 0 {
				b.WriteString(sep)
			}
			if r >= len(cols[start+i].Values) {
				return 0
			}
			b.WriteString(cols[start+i].Values[r])
		}
		if valid(b.String()) {
			ok++
		}
	}
	return float64(ok) / float64(n)
}

func frac(values []string, valid func(string) bool) float64 {
	if len(values) == 0 {
		return 0
	}
	ok := 0
	for _, v := range values {
		if valid(v) {
			ok++
		}
	}
	return float64(ok) / float64(len(values))
}

// confident reports frac(values, valid) >= minConfidence, but stops at
// the failure that puts the bar out of reach.
func confident(values []string, valid func(string) bool) bool {
	n := len(values)
	ok := n
	for _, v := range values {
		if !valid(v) {
			ok--
			if float64(ok)/float64(n) < minConfidence {
				return false
			}
		}
	}
	return n > 0
}

// --- validators (hand-rolled; no regexp needed) ---

// splitParts cuts s at every sep into parts, which must be exactly as
// many pieces as s has; it reports whether it is. Nothing is allocated:
// most values a validator sees are not of its kind, and the rest are
// short.
func splitParts(s string, sep byte, parts []string) bool {
	for i := range parts[:len(parts)-1] {
		j := strings.IndexByte(s, sep)
		if j < 0 {
			return false
		}
		parts[i], s = s[:j], s[j+1:]
	}
	parts[len(parts)-1] = s
	return strings.IndexByte(s, sep) < 0
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func digitsInRange(s string, lo, hi int) bool {
	if !allDigits(s) || len(s) > 4 {
		return false
	}
	v := 0
	for i := 0; i < len(s); i++ {
		v = v*10 + int(s[i]-'0')
	}
	return v >= lo && v <= hi
}

func validIP(s string) bool {
	var parts [4]string
	if !splitParts(s, '.', parts[:]) {
		return false
	}
	for _, p := range parts {
		if !digitsInRange(p, 0, 255) {
			return false
		}
	}
	return true
}

func validTime(s string) bool {
	n := strings.Count(s, ":") + 1
	if n != 2 && n != 3 {
		return false
	}
	var buf [3]string
	parts := buf[:n]
	splitParts(s, ':', parts)
	if !digitsInRange(parts[0], 0, 23) {
		return false
	}
	for _, p := range parts[1:] {
		if len(p) != 2 || !digitsInRange(p, 0, 59) {
			return false
		}
	}
	return true
}

func validDateDash(s string) bool {
	var parts [3]string
	if !splitParts(s, '-', parts[:]) {
		return false
	}
	return len(parts[0]) == 4 && allDigits(parts[0]) &&
		digitsInRange(parts[1], 1, 12) && digitsInRange(parts[2], 1, 31)
}

func validDateSlash(s string) bool {
	var parts [3]string
	if !splitParts(s, '/', parts[:]) {
		return false
	}
	// dd/mm/yyyy or yyyy/mm/dd
	if len(parts[0]) == 4 {
		return allDigits(parts[0]) && digitsInRange(parts[1], 1, 12) && digitsInRange(parts[2], 1, 31)
	}
	return digitsInRange(parts[0], 1, 31) && digitsInRange(parts[1], 1, 12) &&
		len(parts[2]) == 4 && allDigits(parts[2])
}

func validVersion(s string) bool {
	n := strings.Count(s, ".") + 1
	if n < 2 || n > 4 {
		return false
	}
	var buf [4]string
	parts := buf[:n]
	splitParts(s, '.', parts)
	for _, p := range parts {
		if !allDigits(p) || len(p) > 4 {
			return false
		}
	}
	return true
}

func validEmail(s string) bool {
	at := strings.IndexByte(s, '@')
	if at <= 0 || at == len(s)-1 {
		return false
	}
	domain := s[at+1:]
	return strings.Contains(domain, ".") && !strings.ContainsAny(s, " \t")
}

func validUUID(s string) bool {
	var parts [5]string
	if !splitParts(s, '-', parts[:]) {
		return false
	}
	want := [5]int{8, 4, 4, 4, 12}
	for i, p := range parts {
		if len(p) != want[i] || !allHex(p) {
			return false
		}
	}
	return true
}

func allHex(s string) bool {
	for i := 0; i < len(s); i++ {
		b := s[i]
		if !(b >= '0' && b <= '9' || b >= 'a' && b <= 'f' || b >= 'A' && b <= 'F') {
			return false
		}
	}
	return len(s) > 0
}

func validURLPath(s string) bool {
	return len(s) > 1 && s[0] == '/' && !strings.ContainsAny(s, " \t") &&
		strings.Count(s, "/") >= 1
}
