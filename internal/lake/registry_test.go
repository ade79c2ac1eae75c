package lake

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datamaran/internal/template"
)

// twoTemplates builds two distinct template sets for registry tests.
func twoTemplates() ([]*template.Node, []*template.Node) {
	a := template.Struct(template.Field(), template.Lit(","), template.Field(), template.Lit("\n"))
	b := template.Struct(template.Lit("hdr "), template.Field(), template.Lit("\n"))
	return []*template.Node{a}, []*template.Node{b}
}

func TestFingerprintStability(t *testing.T) {
	a, b := twoTemplates()
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("distinct templates share a fingerprint")
	}
	if Fingerprint(a) != Fingerprint([]*template.Node{a[0].Clone()}) {
		t.Fatal("clone changed the fingerprint")
	}
	if len(Fingerprint(a)) != 16 {
		t.Fatalf("fingerprint %q not 16 hex chars", Fingerprint(a))
	}
	// Order matters: a profile is an ordered template list.
	ab := append(append([]*template.Node{}, a...), b...)
	ba := append(append([]*template.Node{}, b...), a...)
	if Fingerprint(ab) == Fingerprint(ba) {
		t.Fatal("template order should change the fingerprint")
	}
}

func TestRegistryAddDedupes(t *testing.T) {
	a, b := twoTemplates()
	reg := NewRegistry()
	e1, new1 := reg.Add(a)
	e2, new2 := reg.Add(a)
	if !new1 || new2 {
		t.Fatalf("dedupe: new1=%v new2=%v", new1, new2)
	}
	if e1 != e2 || reg.Len() != 1 {
		t.Fatal("same templates should map to one entry")
	}
	if _, newB := reg.Add(b); !newB || reg.Len() != 2 {
		t.Fatal("distinct templates should add a second entry")
	}
	if reg.Lookup(e1.Fingerprint) != e1 {
		t.Fatal("lookup by fingerprint failed")
	}
}

func TestRegistrySaveLoadRoundTrip(t *testing.T) {
	a, b := twoTemplates()
	reg := NewRegistry()
	ea, _ := reg.Add(a)
	ea.Files = 7
	reg.Add(b)

	path := filepath.Join(t.TempDir(), "registry.json")
	if err := reg.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("round trip lost entries: %d", back.Len())
	}
	if got := back.Lookup(ea.Fingerprint); got == nil || got.Files != 7 {
		t.Fatalf("files count lost: %+v", got)
	}
	for i, e := range back.Entries() {
		if e.Fingerprint != reg.Entries()[i].Fingerprint {
			t.Fatal("entry order not preserved")
		}
		if !e.Templates[0].Equal(reg.Entries()[i].Templates[0]) {
			t.Fatal("templates changed in round trip")
		}
	}

	// Serialization is deterministic byte-for-byte.
	raw1, err := json.Marshal(reg)
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw1) != string(raw2) {
		t.Fatal("registry serialization not deterministic")
	}
}

func TestLoadRegistryMissingFile(t *testing.T) {
	reg, err := LoadRegistry(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 0 {
		t.Fatal("missing file should load as empty registry")
	}
}

func TestRegistryRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"future version": `{"version": 2, "profiles": []}`,
		"no version":     `{"profiles": []}`,
		"zero version":   `{"version": 0, "profiles": []}`,
		"string version": `{"version": "1", "profiles": []}`,
		"bad fingerprint": `{"version":1,"profiles":[{"fingerprint":"0000000000000000","files":1,` +
			`"templates":[{"kind":"struct","children":[{"kind":"field"},{"kind":"lit","text":"\n"}]}]}]}`,
		"not json":       `registry? no.`,
		"no templates":   `{"version":1,"profiles":[{"fingerprint":"","files":-7,"templates":[]}]}`,
		"null template":  `{"version":1,"profiles":[{"files":1,"templates":[null]}]}`,
		"empty template": `{"version":1,"profiles":[{"files":1,"templates":[{"kind":"struct"}]}]}`,
		"negative files": `{"version":1,"profiles":[{"files":-1,` +
			`"templates":[{"kind":"struct","children":[{"kind":"field"},{"kind":"lit","text":"\n"}]}]}]}`,
	}
	for name, content := range cases {
		p := filepath.Join(dir, strings.ReplaceAll(name, " ", "_")+".json")
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadRegistry(p); err == nil {
			t.Fatalf("%s: expected load error", name)
		}
	}
}

func TestRegistryRejectsDuplicateFingerprints(t *testing.T) {
	tpl := `{"kind":"struct","children":[{"kind":"field"},{"kind":"lit","text":"\n"}]}`
	fp := Fingerprint([]*template.Node{template.Struct(template.Field(), template.Lit("\n")).Normalize()})
	doc := `{"version":1,"profiles":[` +
		`{"fingerprint":"` + fp + `","files":1,"templates":[` + tpl + `]},` +
		`{"fingerprint":"` + fp + `","files":2,"templates":[` + tpl + `]}]}`
	var reg Registry
	if err := json.Unmarshal([]byte(doc), &reg); err == nil {
		t.Fatal("duplicate fingerprints should be rejected")
	}
}
