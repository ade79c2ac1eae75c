package datamaran

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestProfileLearnOnceApplyMany(t *testing.T) {
	// Learn on one file, apply to a sibling file with the same format
	// but different values.
	res, err := Extract(sampleCSV(100), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile()
	if len(p.Templates()) != 1 {
		t.Fatalf("profile templates = %v", p.Templates())
	}

	rng := rand.New(rand.NewSource(77))
	var b strings.Builder
	for i := 0; i < 250; i++ {
		fmt.Fprintf(&b, "%d,%s,%d\n", rng.Intn(1e6), []string{"ok", "bad", "slow"}[rng.Intn(3)], rng.Intn(1e6))
	}
	sibling := []byte(b.String())

	res2, err := ExtractWithProfile(sibling, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Structures) != 1 || res2.Structures[0].Records != 250 {
		t.Fatalf("profile application: %+v", res2.Structures)
	}
	// Discovery steps must be skipped entirely.
	if res2.Timing.Generation != 0 || res2.Timing.Evaluation != 0 {
		t.Fatalf("profile application ran discovery: %+v", res2.Timing)
	}
	// Field spans must point into the sibling data.
	for _, r := range res2.Records[:5] {
		for _, f := range r.Fields {
			if string(sibling[f.Start:f.End]) != f.Value {
				t.Fatalf("span mismatch: %q vs %q", sibling[f.Start:f.End], f.Value)
			}
		}
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	// Multi-line records with a list: the template tree (including the
	// array) must survive serialization.
	rng := rand.New(rand.NewSource(5))
	var b strings.Builder
	for i := 0; i < 80; i++ {
		n := 1 + rng.Intn(4)
		vals := make([]string, n)
		for j := range vals {
			vals[j] = fmt.Sprintf("%d", rng.Intn(100))
		}
		fmt.Fprintf(&b, "hdr %d\nvals: %s;\n", rng.Intn(1000), strings.Join(vals, ","))
	}
	data := []byte(b.String())
	res, err := Extract(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile()

	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if strings.Join(back.Templates(), "|") != strings.Join(p.Templates(), "|") {
		t.Fatalf("round trip changed templates:\n%v\n%v", p.Templates(), back.Templates())
	}

	res2, err := ExtractWithProfile(data, &back)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Records) != len(res.Records) {
		t.Fatalf("deserialized profile extracted %d records, original %d",
			len(res2.Records), len(res.Records))
	}
}

func TestProfileEmptyErrors(t *testing.T) {
	if _, err := ExtractWithProfile([]byte("x\n"), &Profile{}); err == nil {
		t.Fatal("empty profile should error")
	}
	if _, err := ExtractWithProfile([]byte("x\n"), nil); err == nil {
		t.Fatal("nil profile should error")
	}
}

func TestProfileVersionValidation(t *testing.T) {
	cases := map[string]struct {
		doc  string
		want string // substring of the error
	}{
		"future version":  {`{"version":99,"templates":[]}`, "unsupported profile version 99"},
		"missing version": {`{"templates":[]}`, "missing version"},
		"string version":  {`{"version":"1","templates":[]}`, "version field"},
	}
	for name, c := range cases {
		var p Profile
		err := json.Unmarshal([]byte(c.doc), &p)
		if err == nil {
			t.Fatalf("%s: expected error", name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", name, err, c.want)
		}
	}
}

func TestProfileFingerprint(t *testing.T) {
	res, err := Extract(sampleCSV(100), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile()
	fp := p.Fingerprint()
	if len(fp) != 16 {
		t.Fatalf("fingerprint %q not 16 hex chars", fp)
	}
	// The fingerprint survives serialization — it names the format, not
	// the in-memory objects.
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != fp {
		t.Fatalf("fingerprint changed across serialization: %s vs %s", back.Fingerprint(), fp)
	}
}

func TestProfileBadJSON(t *testing.T) {
	var p Profile
	if err := json.Unmarshal([]byte(`{"version":99,"templates":[]}`), &p); err == nil {
		t.Fatal("unknown version should error")
	}
	if err := json.Unmarshal([]byte(`{"version":1,"templates":[{"kind":"array","sep":",","term":",","children":[{"kind":"field"}]}]}`), &p); err == nil {
		t.Fatal("sep==term should error")
	}
	if err := json.Unmarshal([]byte(`{"version":1,"templates":[{"kind":"wat"}]}`), &p); err == nil {
		t.Fatal("unknown kind should error")
	}
	if err := json.Unmarshal([]byte(`{"version":1,"templates":[]}`), &p); err == nil {
		t.Fatal("no templates should error")
	}
	if err := json.Unmarshal([]byte(`{"version":1,"templates":[null]}`), &p); err == nil {
		t.Fatal("null template should error")
	}
	if err := json.Unmarshal([]byte(`{"version":1,"templates":[{"kind":"struct","children":[{"kind":"struct"}]}]}`), &p); err == nil {
		t.Fatal("empty template should error")
	}
}

func TestProfileMultiTypeOrderPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var b strings.Builder
	for i := 0; i < 120; i++ {
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&b, "B|%d|%d\n", i, rng.Intn(10000))
		} else {
			fmt.Fprintf(&b, "A;%d;%d.%d\n", i, rng.Intn(7), rng.Intn(3))
		}
	}
	data := []byte(b.String())
	res, err := Extract(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Structures) < 2 {
		t.Skipf("discovery found %d types", len(res.Structures))
	}
	res2, err := ExtractWithProfile(data, res.Profile())
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Records) != len(res.Records) {
		t.Fatalf("profile re-extraction: %d records vs %d", len(res2.Records), len(res.Records))
	}
	for i := range res2.Records {
		if res2.Records[i].Type != res.Records[i].Type {
			t.Fatalf("record %d type differs", i)
		}
	}
}

// TestProfileCompilesOnce: a profile is compiled when it is made — by
// Result.Profile, by UnmarshalJSON, or as an indexed format's — and every
// extraction it drives hands the engine that one compiled set, never its
// templates to compile again.
func TestProfileCompilesOnce(t *testing.T) {
	res, err := Extract(sampleCSV(100), Options{})
	if err != nil {
		t.Fatal(err)
	}
	learned := res.Profile()
	raw, err := json.Marshal(learned)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Profile
	if err := json.Unmarshal(raw, &loaded); err != nil {
		t.Fatal(err)
	}
	ix, err := IndexDir("testdata/lake", IndexOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	profiles := map[string]*Profile{"learned": learned, "loaded": &loaded, "indexed": ix.Formats[0].Profile()}
	for name, p := range profiles {
		if len(p.matchers) != len(p.templates) || len(p.matchers) == 0 {
			t.Fatalf("%s: %d matchers for %d templates", name, len(p.matchers), len(p.templates))
		}
		for i, m := range p.matchers {
			if m.Template() != p.templates[i] {
				t.Fatalf("%s: matcher %d is not compiled from template %d", name, i, i)
			}
		}
		one, two := Options{Workers: 1}.config(p), Options{Workers: 2, ShardSize: 64}.config(p)
		if one.Templates != nil || two.Templates != nil || &one.Matchers[0] != &p.matchers[0] || &two.Matchers[0] != &p.matchers[0] {
			t.Fatalf("%s: the extractions are handed %p and %p, templates %v and %v; want the profile's matchers %p",
				name, one.Matchers, two.Matchers, one.Templates, two.Templates, p.matchers)
		}
		if got, err := ExtractWithProfile(sampleCSV(10), p); err != nil || got.res.Structures[0].Template != p.templates[0] {
			t.Fatalf("%s: the extraction did not run the profile's compiled templates (err %v)", name, err)
		}
	}
}
