package follow

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpoints feeds the checkpoint loader arbitrary bytes: it never
// panics, and a store it accepts holds only checkpoints Extract or
// Observe could have written — a path, 0 ≤ line ≤ offset ≤ size,
// 0 ≤ prefix_len ≤ size, counts of at least 0 and finalized counts at
// most the whole file's — and saves byte-stable: Save, then Load, then
// Save again writes the same bytes.
func FuzzCheckpoints(f *testing.F) {
	s := NewStore()
	s.Put(&Checkpoint{Path: "b/two.log", Fingerprint: "beef", Offset: 10, Line: 2, Size: 20, PrefixLen: 20, PrefixSHA: "aa", Records: 3, Noise: 1, TotalRecords: 4, TotalNoise: 1})
	s.Put(&Checkpoint{Path: "a/one.log", Size: 9, PrefixLen: 9, PrefixSHA: "bb"})
	good, err := s.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"version":1,"files":[{"path":"a.log","offset":5,"line":1,"size":9,"prefix_len":9,"total_records":-5}]}`))
	f.Add([]byte(`{"version":1,"files":[null,{"path":"a.log"},{"path":"a.log"}]}`))
	f.Add([]byte(`{"version":"1","files":[]}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "checkpoints.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := LoadStore(path)
		if err != nil {
			return
		}
		for _, p := range s.Paths() {
			cp := s.Get(p)
			if p == "" || cp.Path != p || cp.Line < 0 || int64(cp.Line) > cp.Offset || cp.Offset > cp.Size ||
				cp.PrefixLen < 0 || cp.PrefixLen > cp.Size || cp.Records < 0 || cp.Noise < 0 ||
				cp.Records > cp.TotalRecords || cp.Noise > cp.TotalNoise {
				t.Fatalf("accepted checkpoint %+v", *cp)
			}
		}
		save := func(s *Store) []byte {
			if err := s.Save(path); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		once := save(s)
		back, err := LoadStore(path)
		if err != nil {
			t.Fatalf("a saved store does not load again: %v\n%s", err, once)
		}
		if twice := save(back); !bytes.Equal(once, twice) {
			t.Fatalf("the store does not save byte-stable:\n%s\n--- then ---\n%s", once, twice)
		}
	})
}
