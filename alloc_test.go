package datamaran_test

import (
	"bytes"
	"testing"

	"datamaran"
	"datamaran/internal/datagen"
)

// TestStreamApplyAllocsPerBatch pins the apply path's allocation contract:
// a batch allocates one set of slabs (record text, field values, array
// occurrences) per worker, and nothing per record or per field. The same
// profile is applied, at one shard and one worker, to inputs of 2 000 and of
// 10 000 records — 30 000 and 150 000 fields; the larger just fits the
// default shard, so its scratch (some ten times its bytes) is one the
// engine's pool keeps. The chunk buffer and the stage's scratch are
// borrowed from that pool, already grown by the warm-up run, so the two
// runs allocate the same two dozen objects — the run's own fixtures and one
// set of slabs; the slack is one scratch built anew in a run whose pool a
// collection had just emptied. One allocation per record would differ by
// 8 000.
func TestStreamApplyAllocsPerBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	learned, err := datamaran.Extract(datagen.WebServerLog(300, 7).Data, datamaran.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := learned.Profile()
	opts := datamaran.Options{Workers: 1, ShardSize: 1 << 20}
	allocs := func(rows int) float64 {
		data := datagen.WebServerLog(rows, 13).Data
		if len(data) >= opts.ShardSize {
			t.Fatalf("%d rows are %d bytes: more than the one shard the test assumes", rows, len(data))
		}
		return testing.AllocsPerRun(3, func() {
			records, fields := 0, 0
			_, err := datamaran.ExtractStreamWithProfile(bytes.NewReader(data), p, opts, func(r datamaran.Record) error {
				records++
				fields += len(r.Fields)
				return nil
			})
			if err != nil || records != rows || fields < 10*rows {
				t.Fatalf("%d rows: %d records, %d fields, err %v", rows, records, fields, err)
			}
		})
	}
	small, large := allocs(2000), allocs(10000)
	t.Logf("allocations: %.0f at 2 000 records, %.0f at 10 000", small, large)
	if large-small > 10 || small > 40 {
		t.Fatalf("%.0f allocations for 2 000 records, %.0f for 10 000: the apply path allocates per record", small, large)
	}
}
