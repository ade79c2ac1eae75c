package datamaran

import (
	"bytes"
	"encoding/json"
	"testing"

	"datamaran/internal/core"
	"datamaran/internal/template"
)

// FuzzProfileApply feeds the profile loader arbitrary JSON and applies
// whatever it accepts to arbitrary data (at most 4 KiB). A profile is
// untrusted input — the serve daemon and the CLI read them from disk — so
// nothing it holds may panic the loader or the engine, and the extraction
// it yields must be the one extraction: the slice door, the reader door at
// 64-byte shards on two workers, and the tree-walking oracle's residue
// chain agree on every structure, record and noise line.
func FuzzProfileApply(f *testing.F) {
	fld, lit := template.Field, template.Lit
	seed := func(data string, tpls ...*template.Node) {
		for i, tpl := range tpls {
			tpls[i] = tpl.Normalize()
		}
		raw, err := json.Marshal(newProfile(tpls))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, []byte(data))
	}
	seed("a,b\nc,d\nnoise\ne,f", template.Struct(fld(), lit(","), fld(), lit("\n")))
	seed("BEGIN a\nEND b\n1,2\nBEGIN c\n3,4\nEND d\n",
		template.Struct(fld(), lit(","), fld(), lit("\n")),
		template.Struct(lit("BEGIN "), fld(), lit("\nEND "), fld(), lit("\n")))
	seed("a,b;x+y| c;z|\nd;e+f+g|\nnoise\n",
		template.Array([]*template.Node{
			template.Array([]*template.Node{fld()}, ',', ';'),
			template.Array([]*template.Node{fld()}, '+', '|')}, ' ', '\n'))
	seed("x\nx\nfield\nx\ntail", template.Struct(lit("x\n"), fld()))
	f.Add([]byte(`{"version":1,"templates":[]}`), []byte("a\n"))
	f.Add([]byte(`{"version":2}`), []byte("a\n"))

	f.Fuzz(func(t *testing.T, profileJSON, data []byte) {
		if len(data) > 4<<10 {
			data = data[:4<<10]
		}
		var p Profile
		if err := json.Unmarshal(profileJSON, &p); err != nil {
			return
		}
		mem, err := ExtractWithProfile(data, &p)
		sharded, shardedErr := ExtractReaderWithProfile(bytes.NewReader(data), &p, Options{ShardSize: 64, Workers: 2})
		if err != nil || shardedErr != nil {
			// Only an empty profile or an empty input is refused, and by
			// both doors alike.
			if err == nil || shardedErr == nil || err.Error() != shardedErr.Error() {
				t.Fatalf("slice door: %v; reader door: %v", err, shardedErr)
			}
			if p.usable() == nil && err != core.ErrEmptyInput {
				t.Fatalf("usable profile, %d bytes: %v", len(data), err)
			}
			return
		}
		requireSameExtraction(t, "slice vs oracle", reference(&p, data), mem)
		requireSameExtraction(t, "reader vs slice", mem, sharded)
	})
}
