package semtype

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func TestValidIP(t *testing.T) {
	good := []string{"0.0.0.0", "192.168.0.1", "255.255.255.255"}
	bad := []string{"256.1.1.1", "1.2.3", "1.2.3.4.5", "a.b.c.d", "1..2.3", ""}
	for _, s := range good {
		if !validIP(s) {
			t.Errorf("validIP(%q) = false", s)
		}
	}
	for _, s := range bad {
		if validIP(s) {
			t.Errorf("validIP(%q) = true", s)
		}
	}
}

func TestValidTime(t *testing.T) {
	good := []string{"00:00", "23:59", "10:11:12", "9:05"}
	bad := []string{"24:00", "10:60", "10:1", "10", "aa:bb", "10:11:12:13"}
	for _, s := range good {
		if !validTime(s) {
			t.Errorf("validTime(%q) = false", s)
		}
	}
	for _, s := range bad {
		if validTime(s) {
			t.Errorf("validTime(%q) = true", s)
		}
	}
}

func TestValidDate(t *testing.T) {
	if !validDateDash("2016-03-05") || validDateDash("2016-13-05") || validDateDash("16-03-05") {
		t.Error("dash date validation wrong")
	}
	if !validDateSlash("05/03/2016") || !validDateSlash("2016/03/05") || validDateSlash("2016/33/05") {
		t.Error("slash date validation wrong")
	}
}

func TestValidVersionEmailUUIDPath(t *testing.T) {
	if !validVersion("1.2.3") || !validVersion("10.4") || validVersion("1") || validVersion("a.b") {
		t.Error("version validation wrong")
	}
	if !validEmail("a@b.com") || validEmail("@b.com") || validEmail("a@") || validEmail("a b@c.d") {
		t.Error("email validation wrong")
	}
	if !validUUID("12345678-1234-1234-1234-123456789abc") || validUUID("xyz") {
		t.Error("uuid validation wrong")
	}
	if !validURLPath("/a/b.html") || validURLPath("a/b") || validURLPath("/a b") {
		t.Error("urlpath validation wrong")
	}
}

// ipCols builds four adjacent int columns that join into IPs.
func ipCols(n int) ([]Column, []string) {
	cols := make([]Column, 4)
	for i := range cols {
		cols[i].Name = fmt.Sprintf("f%d", i)
	}
	for r := 0; r < n; r++ {
		cols[0].Values = append(cols[0].Values, fmt.Sprintf("%d", 10+r%200))
		cols[1].Values = append(cols[1].Values, fmt.Sprintf("%d", r%256))
		cols[2].Values = append(cols[2].Values, fmt.Sprintf("%d", (r*3)%256))
		cols[3].Values = append(cols[3].Values, fmt.Sprintf("%d", 1+r%250))
	}
	return cols, []string{".", ".", "."}
}

func TestDetectIPMerge(t *testing.T) {
	cols, seps := ipCols(50)
	merges := Detect(cols, seps)
	if len(merges) != 1 {
		t.Fatalf("merges = %d, want 1: %+v", len(merges), merges)
	}
	m := merges[0]
	if m.Kind != KindIP || len(m.Columns) != 4 {
		t.Fatalf("merge = %+v", m)
	}
	if m.Confidence < 0.99 {
		t.Fatalf("confidence = %v", m.Confidence)
	}
}

func TestDetectRejectsWrongSeparators(t *testing.T) {
	cols, _ := ipCols(50)
	merges := Detect(cols, []string{",", ",", ","})
	for _, m := range merges {
		if m.Kind == KindIP {
			t.Fatal("IP merge proposed despite comma separators")
		}
	}
}

func TestDetectRejectsOutOfRange(t *testing.T) {
	cols, seps := ipCols(50)
	// Corrupt one column: values above 255.
	for i := range cols[1].Values {
		cols[1].Values[i] = "999"
	}
	for _, m := range Detect(cols, seps) {
		if m.Kind == KindIP {
			t.Fatal("IP merge proposed for out-of-range octets")
		}
	}
}

func TestDetectTimeAndDate(t *testing.T) {
	cols := []Column{
		{Name: "h"}, {Name: "m"}, {Name: "s"},
		{Name: "y"}, {Name: "mo"}, {Name: "d"},
	}
	for r := 0; r < 40; r++ {
		cols[0].Values = append(cols[0].Values, fmt.Sprintf("%02d", r%24))
		cols[1].Values = append(cols[1].Values, fmt.Sprintf("%02d", r%60))
		cols[2].Values = append(cols[2].Values, fmt.Sprintf("%02d", (r*7)%60))
		cols[3].Values = append(cols[3].Values, "2016")
		cols[4].Values = append(cols[4].Values, fmt.Sprintf("%02d", 1+r%12))
		cols[5].Values = append(cols[5].Values, fmt.Sprintf("%02d", 1+r%28))
	}
	seps := []string{":", ":", "", "-", "-"}
	merges := Detect(cols, seps)
	kinds := map[Kind]bool{}
	for _, m := range merges {
		kinds[m.Kind] = true
	}
	if !kinds[KindTime] || !kinds[KindDate] {
		t.Fatalf("kinds = %v, want time and date", kinds)
	}
}

func TestDetectSingleColumnIP(t *testing.T) {
	cols := []Column{{Name: "addr"}}
	for r := 0; r < 30; r++ {
		cols[0].Values = append(cols[0].Values, fmt.Sprintf("10.0.%d.%d", r%256, 1+r%250))
	}
	merges := Detect(cols, nil)
	if len(merges) != 1 || merges[0].Kind != KindIP || len(merges[0].Columns) != 1 {
		t.Fatalf("merges = %+v", merges)
	}
}

func TestDetectNoFalsePositivesOnText(t *testing.T) {
	cols := []Column{{Name: "a"}, {Name: "b"}}
	for r := 0; r < 30; r++ {
		cols[0].Values = append(cols[0].Values, "hello")
		cols[1].Values = append(cols[1].Values, "world")
	}
	if merges := Detect(cols, []string{" "}); len(merges) != 0 {
		t.Fatalf("unexpected merges on text: %+v", merges)
	}
}

func TestApplyMergesRows(t *testing.T) {
	cols, seps := ipCols(5)
	merges := Detect(cols, seps)
	names := []string{"f0", "f1", "f2", "f3"}
	rows := make([][]string, 5)
	for r := 0; r < 5; r++ {
		rows[r] = []string{cols[0].Values[r], cols[1].Values[r], cols[2].Values[r], cols[3].Values[r]}
	}
	outNames, outRows := Apply(names, rows, merges)
	if len(outNames) != 1 || outNames[0] != "ip" {
		t.Fatalf("names = %v", outNames)
	}
	want := strings.Join(rows[0], ".")
	if outRows[0][0] != want {
		t.Fatalf("row 0 = %v, want %q", outRows[0], want)
	}
}

func TestApplyPreservesUnmerged(t *testing.T) {
	cols, seps := ipCols(5)
	cols = append(cols, Column{Name: "status", Values: []string{"a", "b", "c", "d", "e"}})
	seps = append(seps, " ")
	merges := Detect(cols, seps)
	names := []string{"f0", "f1", "f2", "f3", "status"}
	rows := make([][]string, 5)
	for r := 0; r < 5; r++ {
		rows[r] = []string{cols[0].Values[r], cols[1].Values[r], cols[2].Values[r], cols[3].Values[r], cols[4].Values[r]}
	}
	outNames, outRows := Apply(names, rows, merges)
	if len(outNames) != 2 || outNames[1] != "status" {
		t.Fatalf("names = %v", outNames)
	}
	if outRows[2][1] != "c" {
		t.Fatalf("rows = %v", outRows[2])
	}
}

func TestApplyNoMergesIdentity(t *testing.T) {
	names := []string{"a", "b"}
	rows := [][]string{{"1", "2"}}
	outNames, outRows := Apply(names, rows, nil)
	if len(outNames) != 2 || outRows[0][1] != "2" {
		t.Fatal("identity Apply broken")
	}
}

func TestUUIDMergeBeatsShorterProbes(t *testing.T) {
	cols := make([]Column, 5)
	widths := []int{8, 4, 4, 4, 12}
	for r := 0; r < 20; r++ {
		for i, w := range widths {
			cols[i].Values = append(cols[i].Values, strings.Repeat("a", w))
		}
	}
	seps := []string{"-", "-", "-", "-"}
	merges := Detect(cols, seps)
	if len(merges) != 1 || merges[0].Kind != KindUUID {
		t.Fatalf("merges = %+v, want one uuid", merges)
	}
}

// splitValid rebuilds a validator the way they were first written — on
// strings.Split — as the reference for the index-walking ones.
func splitValid(sep string, counts []int, part func(i int, p string) bool) func(string) bool {
	return func(s string) bool {
		parts := strings.Split(s, sep)
		for _, n := range counts {
			if len(parts) == n {
				for i, p := range parts {
					if !part(i, p) {
						return false
					}
				}
				return true
			}
		}
		return false
	}
}

// TestValidatorsMatchSplitReference: the allocation-free validators
// accept exactly what their strings.Split originals did, on strings
// built from each kind's alphabet (so separators land everywhere).
func TestValidatorsMatchSplitReference(t *testing.T) {
	uuidLen := []int{8, 4, 4, 4, 12}
	cases := []struct {
		name     string
		alphabet string
		got, ref func(string) bool
	}{
		{"ip", "0125.9a", validIP, splitValid(".", []int{4}, func(_ int, p string) bool { return digitsInRange(p, 0, 255) })},
		{"time", "0123569:a", validTime, splitValid(":", []int{2, 3}, func(i int, p string) bool {
			if i == 0 {
				return digitsInRange(p, 0, 23)
			}
			return len(p) == 2 && digitsInRange(p, 0, 59)
		})},
		{"version", "019.a", validVersion, splitValid(".", []int{2, 3, 4}, func(_ int, p string) bool { return allDigits(p) && len(p) <= 4 })},
		{"uuid", "0aF-g", validUUID, splitValid("-", []int{5}, func(i int, p string) bool { return len(p) == uuidLen[i] && allHex(p) })},
		{"date-dash", "0123-a", validDateDash, splitValid("-", []int{3}, func(i int, p string) bool {
			switch i {
			case 0:
				return len(p) == 4 && allDigits(p)
			case 1:
				return digitsInRange(p, 1, 12)
			}
			return digitsInRange(p, 1, 31)
		})},
	}
	rng := rand.New(rand.NewSource(5))
	for _, c := range cases {
		accepted := 0
		for trial := 0; trial < 20000; trial++ {
			b := make([]byte, rng.Intn(14))
			for i := range b {
				b[i] = c.alphabet[rng.Intn(len(c.alphabet))]
			}
			s := string(b)
			if trial%4 == 0 { // valid shapes are rare at random: build some
				s = shaped(rng, c.name)
			}
			got, want := c.got(s), c.ref(s)
			if got != want {
				t.Fatalf("%s(%q) = %v, reference %v", c.name, s, got, want)
			}
			if got {
				accepted++
			}
		}
		if accepted == 0 {
			t.Errorf("%s: no generated string was valid; the comparison proves nothing", c.name)
		}
	}
}

// shaped returns a string that is of the named kind, or close to it.
func shaped(rng *rand.Rand, kind string) string {
	num := func(max int) string { return strconv.Itoa(rng.Intn(max)) }
	hex := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "0123456789abcdefABCDEF"[rng.Intn(22)]
		}
		return string(b)
	}
	switch kind {
	case "ip":
		return num(300) + "." + num(300) + "." + num(300) + "." + num(300)
	case "time":
		s := num(26) + ":" + fmt.Sprintf("%02d", rng.Intn(64))
		if rng.Intn(2) == 0 {
			s += ":" + fmt.Sprintf("%02d", rng.Intn(64))
		}
		return s
	case "version":
		s := num(20)
		for i := rng.Intn(5); i > 0; i-- {
			s += "." + num(20000)
		}
		return s
	case "uuid":
		return hex(8) + "-" + hex(4) + "-" + hex(4) + "-" + hex(4) + "-" + hex(11+rng.Intn(2))
	default:
		return fmt.Sprintf("%04d-%d-%d", rng.Intn(3000), rng.Intn(14), rng.Intn(33))
	}
}

// TestConfidentMatchesFrac: the early-stopping bar is the same bar —
// frac(values, valid) >= minConfidence — for every column length and
// failure count around it.
func TestConfidentMatchesFrac(t *testing.T) {
	valid := func(s string) bool { return s == "ok" }
	if confident(nil, valid) {
		t.Error("an empty column is confident")
	}
	rng := rand.New(rand.NewSource(9))
	for n := 1; n <= 300; n++ {
		for fails := 0; fails <= n && fails <= n/10+2; fails++ {
			values := make([]string, n)
			for i := range values {
				values[i] = "ok"
			}
			for _, i := range rng.Perm(n)[:fails] {
				values[i] = ""
			}
			if got, want := confident(values, valid), frac(values, valid) >= minConfidence; got != want {
				t.Fatalf("n=%d fails=%d: confident %v, frac>=bar %v", n, fails, got, want)
			}
		}
	}
}

// TestClassifyValuesStopsEarly: a column of one kind's values with a
// single value of no kind among them still classifies by the 95% bar,
// and a column that is not numeric is not called numeric because the
// number loop stopped.
func TestClassifyValuesStopsEarly(t *testing.T) {
	col := func(n int, v string, odd ...string) []string {
		out := append([]string{}, odd...)
		for len(out) < n {
			out = append(out, v)
		}
		return out
	}
	for _, c := range []struct {
		values []string
		want   Kind
	}{
		{col(40, "10.0.0.1", "n/a"), KindIP},
		{col(10, "10.0.0.1", "n/a"), KindString},
		{col(40, "17", "x"), KindString},
		{col(40, "17", "1.5"), KindFloat},
		{col(40, "17", ""), KindInt},
		{col(40, "", ""), KindString},
		{col(40, "10:11:12"), KindTime},
		{col(40, "/a/b"), KindURLPath},
	} {
		if got := ClassifyValues(c.values); got != c.want {
			t.Errorf("ClassifyValues(%q...) = %s, want %s", c.values[:2], got, c.want)
		}
	}
}

func BenchmarkClassifyValues(b *testing.B) {
	values := make([]string, 4096)
	for i := range values {
		values[i] = fmt.Sprintf("worker-%d/queue.%d", i%97, i%13)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ClassifyValues(values)
	}
}
