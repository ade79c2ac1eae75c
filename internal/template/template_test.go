package template

import (
	"testing"

	"datamaran/internal/chars"
)

// tpl is shorthand for a normalized struct tree.
func tpl(children ...*Node) *Node { return Struct(children...).Normalize() }

func TestStringNotation(t *testing.T) {
	// F,F,F\n
	n := tpl(Field(), Lit(","), Field(), Lit(","), Field(), Lit("\n"))
	if got := n.String(); got != `F,F,F\n` {
		t.Fatalf("String() = %q", got)
	}
}

func TestStringArrayNotation(t *testing.T) {
	// (F,)*F\n
	n := Array([]*Node{Field()}, ',', '\n')
	if got := n.String(); got != `(F,)*F\n` {
		t.Fatalf("String() = %q", got)
	}
}

func TestNestedArrayString(t *testing.T) {
	// F,F,"(F,)*F",F\n  — the paper's Figure 6 template shape.
	inner := Array([]*Node{Field()}, ',', '"')
	n := tpl(Field(), Lit(","), Field(), Lit(`,"`), inner, Lit(","), Field(), Lit("\n"))
	want := `F,F,"(F,)*F",F\n`
	if got := n.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestEqualAndClone(t *testing.T) {
	a := tpl(Field(), Lit(": "), Field(), Lit("\n"))
	b := tpl(Field(), Lit(": "), Field(), Lit("\n"))
	if !a.Equal(b) {
		t.Fatal("identical trees should be Equal")
	}
	c := a.Clone()
	if !a.Equal(c) {
		t.Fatal("clone should be Equal to original")
	}
	c.Children[1] = Lit("; ")
	if a.Equal(c) {
		t.Fatal("mutated clone should not be Equal")
	}
	if a.Children[1].Lit != ": " {
		t.Fatal("mutating clone must not affect original")
	}
}

func TestEqualDistinguishesArrayChars(t *testing.T) {
	a := Array([]*Node{Field()}, ',', '\n')
	b := Array([]*Node{Field()}, ';', '\n')
	c := Array([]*Node{Field()}, ',', ']')
	if a.Equal(b) || a.Equal(c) {
		t.Fatal("arrays with different sep/term must differ")
	}
}

func TestNormalizeMergesLiterals(t *testing.T) {
	n := Struct(Lit("a"), Lit("b"), Field(), Lit(""), Lit("c")).Normalize()
	want := tpl(Lit("ab"), Field(), Lit("c"))
	if !n.Equal(want) {
		t.Fatalf("Normalize = %v, want %v", n, want)
	}
}

func TestNormalizeFlattensStructs(t *testing.T) {
	n := Struct(Struct(Field(), Lit(",")), Struct(Field())).Normalize()
	want := tpl(Field(), Lit(","), Field())
	if !n.Equal(want) {
		t.Fatalf("Normalize = %v, want %v", n, want)
	}
}

func TestNormalizeSingleChildCollapse(t *testing.T) {
	n := Struct(Struct(Field())).Normalize()
	if n.Kind != KField {
		t.Fatalf("Normalize of nested single field = %v, want bare field", n)
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	n := Struct(Lit("x"), Struct(Field(), Lit("a"), Lit("b")), Array([]*Node{Field()}, ',', '\n'))
	once := n.Normalize()
	twice := once.Normalize()
	if !once.Equal(twice) {
		t.Fatalf("Normalize not idempotent: %v vs %v", once, twice)
	}
}

func TestKeyDistinguishesLiteralParens(t *testing.T) {
	// A literal "(F,)*F" string must not collide with an actual array.
	arr := Array([]*Node{Field()}, ',', '\n')
	lit := tpl(Lit("("), Field(), Lit(",)*"), Field(), Lit("\n")) // same display
	if arr.Key() == lit.Key() {
		t.Fatal("Key must distinguish array from literal parens")
	}
}

func TestKeyEqualIffEqual(t *testing.T) {
	trees := []*Node{
		tpl(Field(), Lit(","), Field(), Lit("\n")),
		tpl(Field(), Lit(";"), Field(), Lit("\n")),
		Array([]*Node{Field()}, ',', '\n'),
		Array([]*Node{Field()}, ',', ';'),
		tpl(Lit("["), Field(), Lit("] "), Field(), Lit("\n")),
		tpl(Field(), Lit("\n")),
		Field(),
	}
	for i, a := range trees {
		for j, b := range trees {
			sameKey := a.Key() == b.Key()
			if sameKey != a.Equal(b) {
				t.Errorf("trees %d,%d: Key equality %v but Equal %v", i, j, sameKey, a.Equal(b))
			}
		}
	}
}

func TestNumFields(t *testing.T) {
	n := tpl(Field(), Lit(","), Array([]*Node{Field(), Lit(":"), Field()}, ',', '\n'))
	if got := n.NumFields(); got != 3 {
		t.Fatalf("NumFields = %d, want 3", got)
	}
}

func TestHasArrayAndDepth(t *testing.T) {
	flat := tpl(Field(), Lit("\n"))
	if flat.HasArray() {
		t.Error("flat template should not HasArray")
	}
	nested := tpl(Lit("["), Array([]*Node{Field()}, ',', ']'), Lit("\n"))
	if !nested.HasArray() {
		t.Error("nested template should HasArray")
	}
	if flat.Depth() >= nested.Depth() {
		t.Errorf("depth(flat)=%d should be < depth(nested)=%d", flat.Depth(), nested.Depth())
	}
}

func TestRTCharSet(t *testing.T) {
	n := tpl(Lit("["), Field(), Lit("] "), Array([]*Node{Field()}, ',', '\n'))
	got := n.RTCharSet()
	want := chars.NewSet("[] ,\n")
	if !got.Equal(want) {
		t.Fatalf("RTCharSet = %v, want %v", got, want)
	}
}

func TestLen(t *testing.T) {
	// "F,F\n" has length 4.
	n := tpl(Field(), Lit(","), Field(), Lit("\n"))
	if got := n.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	// "(F,)*F\n" has length 7: ( F , ) * F \n.
	arr := Array([]*Node{Field()}, ',', '\n')
	if got := arr.Len(); got != 7 {
		t.Fatalf("array Len = %d, want 7", got)
	}
}

func TestTokensRoundTrip(t *testing.T) {
	n := tpl(Lit("["), Field(), Lit(":"), Field(), Lit("] "), Array([]*Node{Field()}, '.', '\n'))
	back := Struct(Tokens(n)...).Normalize()
	if !back.Equal(n) {
		t.Fatalf("Tokens round trip = %v, want %v", back, n)
	}
}

func TestIsPeriodicStack(t *testing.T) {
	line := func() []*Node {
		return []*Node{Field(), Lit(","), Field(), Lit("\n")}
	}
	single := tpl(line()...)
	if IsPeriodicStack(single) {
		t.Error("single-line template flagged periodic")
	}
	double := tpl(append(line(), line()...)...)
	if !IsPeriodicStack(double) {
		t.Error("2-stack not flagged periodic")
	}
	triple := tpl(append(append(line(), line()...), line()...)...)
	if !IsPeriodicStack(triple) {
		t.Error("3-stack not flagged periodic")
	}
	// Two different lines: not periodic.
	mixed := tpl(Field(), Lit(":"), Field(), Lit("\n"), Field(), Lit("="), Field(), Lit("\n"))
	if IsPeriodicStack(mixed) {
		t.Error("heterogeneous 2-line template flagged periodic")
	}
	// ABAB is periodic with period 2.
	abab := tpl(
		Field(), Lit(":"), Field(), Lit("\n"), Field(), Lit("="), Field(), Lit("\n"),
		Field(), Lit(":"), Field(), Lit("\n"), Field(), Lit("="), Field(), Lit("\n"))
	if !IsPeriodicStack(abab) {
		t.Error("ABAB stack not flagged periodic")
	}
}

func TestIsPeriodicStackWithArraySegments(t *testing.T) {
	// Two identical array-terminated lines: periodic.
	arrLine := func() *Node { return Array([]*Node{Field()}, ',', '\n') }
	double := tpl(arrLine(), arrLine())
	if !IsPeriodicStack(double) {
		t.Error("stack of array lines not flagged periodic")
	}
}

func TestHasFreeLineArray(t *testing.T) {
	free := Array([]*Node{Field()}, '\n', ',')
	if !HasFreeLineArray(tpl(free, Field(), Lit("\n"))) {
		t.Error("free-line array not detected")
	}
	// (F )*F\n is NOT free-line (separator is space).
	syslog := Array([]*Node{Field()}, ' ', '\n')
	if HasFreeLineArray(tpl(syslog)) {
		t.Error("syslog array wrongly flagged")
	}
	// Structured body with '\n' separator is NOT free-line.
	kv := Array([]*Node{Field(), Lit(": "), Field()}, '\n', '}')
	if HasFreeLineArray(tpl(Lit("{"), kv)) {
		t.Error("structured cross-line array wrongly flagged")
	}
	if HasFreeLineArray(tpl(Field(), Lit(","), Field(), Lit("\n"))) {
		t.Error("plain template wrongly flagged")
	}
}

func TestHasFreeLineArrayNested(t *testing.T) {
	inner := Array([]*Node{Field()}, '\n', ';')
	outer := Array([]*Node{inner, Lit(",")}, '|', '\n')
	if !HasFreeLineArray(tpl(outer)) {
		t.Error("nested free-line array not detected")
	}
}

func TestJSONRoundTripExamples(t *testing.T) {
	trees := []*Node{
		tpl(Field(), Lit(","), Field(), Lit("\n")),
		Array([]*Node{Field()}, ',', '\n'),
		tpl(Lit("["), Array([]*Node{Field(), Lit(":"), Field()}, ';', ']'), Lit("\n")),
		tpl(Lit(`{"`), Field(), Lit(`"}`), Lit("\n")),
	}
	for i, tr := range trees {
		raw, err := tr.MarshalJSON()
		if err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		back, err := UnmarshalNode(raw)
		if err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		if !back.Normalize().Equal(tr.Normalize()) {
			t.Fatalf("tree %d round trip: %v vs %v", i, back, tr)
		}
	}
}

func TestUnmarshalNodeRejectsBadInput(t *testing.T) {
	bad := []string{
		`{"kind":"array","sep":"","term":"x","children":[{"kind":"field"}]}`,
		`{"kind":"array","sep":"ab","term":"x","children":[{"kind":"field"}]}`,
		`{"kind":"array","sep":",","term":",","children":[{"kind":"field"}]}`,
		`{"kind":"array","sep":",","term":";"}`,
		`{"kind":"lit"}`,
		`{"kind":"nope"}`,
		`not json`,
	}
	for _, s := range bad {
		if _, err := UnmarshalNode([]byte(s)); err == nil {
			t.Errorf("UnmarshalNode(%s) should fail", s)
		}
	}
}

func TestAppendFlatTokensAppends(t *testing.T) {
	set := chars.NewSet(",")
	dst, _ := AppendFlatTokens(nil, []byte("a,b\n"), set)
	n := len(dst)
	dst, _ = AppendFlatTokens(dst, []byte("c,d\n"), set)
	if len(dst) != 2*n {
		t.Fatalf("append grew %d -> %d, want %d", n, len(dst), 2*n)
	}
	if dst[0] != TokField || dst[n] != TokField {
		t.Fatalf("windows not concatenated: %v", dst)
	}
}
