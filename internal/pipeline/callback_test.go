package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"datamaran/internal/core"
	"datamaran/internal/datagen"
	"datamaran/internal/template"
)

// callbackTrace is what one run handed its callbacks, in call order.
type callbackTrace struct {
	records []core.RecordOut
	noise   []int
}

// traceRun streams data through tpls and records the callbacks' traces.
func traceRun(t *testing.T, data []byte, tpls []*template.Node, shard, workers int) callbackTrace {
	t.Helper()
	var tr callbackTrace
	res, err := Run(bytes.NewReader(data), Config{
		Templates: tpls, ShardSize: shard, Workers: workers,
		OnRecord: func(r core.RecordOut) error { tr.records = append(tr.records, r); return nil },
		OnNoise:  func(line int) error { tr.noise = append(tr.noise, line); return nil },
	})
	if err != nil {
		t.Fatalf("shard %d, workers %d: %v", shard, workers, err)
	}
	if len(res.Records) != 0 || len(res.NoiseLines) != 0 {
		t.Fatalf("shard %d, workers %d: %d records, %d noise lines in the Result of a callback run", shard, workers, len(res.Records), len(res.NoiseLines))
	}
	return tr
}

// byType splits a record sequence into one sequence per record type.
func byType(recs []core.RecordOut, types int) [][]core.RecordOut {
	out := make([][]core.RecordOut, types)
	for _, r := range recs {
		out[r.TypeID] = append(out[r.TypeID], r)
	}
	return out
}

// callbackInput is a two-type interleaved log with a noise line every
// fifth line, first and last, so shard cuts land on noise and on records
// of either type alike, and noise cascades through both stages.
func callbackInput(t *testing.T) ([]byte, []*template.Node) {
	t.Helper()
	clean := datagen.InterleavedTypes(2, 150, 11).Data
	tpls := discoverTemplates(t, clean)
	if len(tpls) < 2 {
		t.Fatalf("test is vacuous: %d templates", len(tpls))
	}
	var b bytes.Buffer
	b.WriteString("### leading noise @@\n")
	for i, line := range bytes.SplitAfter(clean, []byte("\n")) {
		b.Write(line)
		if i%5 == 4 {
			fmt.Fprintf(&b, "### noise %d @@\n", i)
		}
	}
	b.WriteString("### trailing noise @@\n")
	return b.Bytes(), tpls
}

// TestCallbackOrder pins what a caller of OnRecord and OnNoise sees while
// one batch's records are delivered as the next batch is filled: at every
// shard size and worker count the noise sequence, and each record type's
// sequence, are the single-worker whole-input run's; at one shard size the
// whole record sequence — types interleaving batch by batch — does not
// depend on the worker count.
func TestCallbackOrder(t *testing.T) {
	data, tpls := callbackInput(t)
	whole := traceRun(t, data, tpls, len(data)+1, 1)
	if len(whole.noise) == 0 {
		t.Fatal("test is vacuous: no noise")
	}
	wantByType := byType(whole.records, len(tpls))
	for k, recs := range wantByType {
		if len(recs) == 0 {
			t.Fatalf("test is vacuous: no record of type %d", k)
		}
	}
	for _, shard := range []int{64, 4 << 10, 0} {
		var first []core.RecordOut
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("shard %d, workers %d", shard, workers)
			got := traceRun(t, data, tpls, shard, workers)
			if !reflect.DeepEqual(got.noise, whole.noise) {
				t.Fatalf("%s: OnNoise sequence %v, whole-input run %v", label, got.noise, whole.noise)
			}
			if !reflect.DeepEqual(byType(got.records, len(tpls)), wantByType) {
				t.Fatalf("%s: a record type's OnRecord sequence differs from the whole-input run's", label)
			}
			if first == nil {
				first = got.records
			} else if !reflect.DeepEqual(got.records, first) {
				t.Fatalf("%s: OnRecord sequence differs from the one-worker run at the same shard size", label)
			}
		}
	}
}

// TestCallbackErrorStopsTheRun: an OnRecord that fails at record k is not
// called again, nor is OnNoise, and Run returns its error — whether the
// record was delivered beside a later batch's fill or by finish; a cancel
// from inside OnRecord mid-stream ends the run with ctx.Err().
func TestCallbackErrorStopsTheRun(t *testing.T) {
	data, tpls := callbackInput(t)
	total := len(traceRun(t, data, tpls, 0, 1).records)
	stop := errors.New("stop")
	for _, shard := range []int{64, 4 << 10, 0} {
		for _, workers := range []int{1, 2, 8} {
			for _, k := range []int{1, total / 2, total} {
				label := fmt.Sprintf("shard %d, workers %d, failing at record %d", shard, workers, k)
				calls, stopped := 0, false
				late := func() {
					if stopped {
						t.Errorf("%s: a callback ran after OnRecord failed", label)
					}
				}
				_, err := Run(bytes.NewReader(data), Config{
					Templates: tpls, ShardSize: shard, Workers: workers,
					OnRecord: func(core.RecordOut) error {
						late()
						if calls++; calls == k {
							stopped = true
							return stop
						}
						return nil
					},
					OnNoise: func(int) error { late(); return nil },
				})
				if !errors.Is(err, stop) || calls != k {
					t.Fatalf("%s: err = %v after %d calls", label, err, calls)
				}
			}
		}
	}

	// Long enough that the first delivery, one batch after the first fill,
	// still has shards to read after it.
	long := bytes.Repeat(data, 4)
	for _, shard := range []int{64, 4 << 10} {
		for _, workers := range []int{1, 2, 8} {
			ctx, cancel := context.WithCancel(context.Background())
			_, err := RunContext(ctx, bytes.NewReader(long), Config{
				Templates: tpls, ShardSize: shard, Workers: workers,
				OnRecord: func(core.RecordOut) error { cancel(); return nil },
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("shard %d, workers %d: a cancel mid-stream returned %v", shard, workers, err)
			}
		}
	}
}

// TestCallbackPanicJoinsTheFill: an OnRecord that panics while the workers
// fill the next batch unwinds only once they are done, so the run's scratch
// goes back to the pool with no filler still writing into it. A caller that
// recovers runs again, on that scratch, and gets the callbacks a clean run
// gives. Run it under -race: an orphaned filler races with the unwinding
// run's release and with the next run.
func TestCallbackPanicJoinsTheFill(t *testing.T) {
	data, tpls := callbackInput(t)
	long := bytes.Repeat(data, 4)
	const shard = 4 << 10
	want := traceRun(t, long, tpls, shard, 1)
	for round := range 10 {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("round %d: OnRecord's panic did not reach the caller", round)
				}
			}()
			Run(bytes.NewReader(long), Config{
				Templates: tpls, ShardSize: shard, Workers: 2,
				OnRecord: func(core.RecordOut) error { panic("stop") },
			})
		}()
		if got := traceRun(t, long, tpls, shard, 2); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: the run after a recovered OnRecord panic differs from a clean run", round)
		}
	}
}
