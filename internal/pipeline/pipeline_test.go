package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"datamaran/internal/core"
	"datamaran/internal/datagen"
	"datamaran/internal/parser"
	"datamaran/internal/parser/parsertest"
	"datamaran/internal/template"
)

// templatesOf lists a result's templates in application order.
func templatesOf(res *core.Result) []*template.Node {
	var tpls []*template.Node
	for _, s := range res.Structures {
		tpls = append(tpls, s.Template)
	}
	return tpls
}

// runBoth streams data through discovery and the sharded engine (forcing
// many shards) and returns the result next to its reference: the oracle's
// whole-input residue chain (parsertest.Apply) over the templates the run
// discovered.
func runBoth(t *testing.T, data []byte, shardSize int, workers int) (*core.Result, *core.Result) {
	t.Helper()
	got, err := Run(bytes.NewReader(data), Config{
		ShardSize: shardSize,
		Workers:   workers,
	})
	if err != nil {
		t.Fatalf("pipeline.Run: %v", err)
	}
	return parsertest.Apply(templatesOf(got), data), got
}

// TestStreamEquivalenceCorpus is the property test of the engine: on the
// datagen corpus, the sharded streaming extraction must produce the same
// structures, records and noise lines as the oracle's whole-input residue
// chain, even with shards far smaller than a record.
func TestStreamEquivalenceCorpus(t *testing.T) {
	// The 25 Table-5 analogs at reduced scale cover every structure
	// class (single/multi-line, interleaved, noisy) while keeping the
	// 2×(datasets×shards) full-extraction matrix inside CI budgets; the
	// full-size GitHub corpus adds minutes per dataset without new code
	// paths.
	datasets := datagen.ManualDatasets(0.05)
	shards := []int{512, 64 << 10}
	if testing.Short() {
		// Keep the -race CI job fast: a subset of datasets, one
		// adversarially small shard size.
		datasets = datasets[:8]
		shards = []int{512}
	}
	for _, d := range datasets {
		for _, shard := range shards {
			name := fmt.Sprintf("%s/shard%d", d.Name, shard)
			t.Run(name, func(t *testing.T) {
				want, got := runBoth(t, d.Data, shard, 4)
				parsertest.RequireResultEqual(t, name, want, got)
			})
		}
	}
}

// TestRecordSpansShardCut pins the boundary behavior directly: a
// multi-line record type with the shard size smaller than one record, so
// every record straddles at least one shard boundary.
func TestRecordSpansShardCut(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&b, "begin %d\ndetailfieldvalue:%d\nchecksum %d end\n", i, i*7, i*13)
	}
	data := []byte(b.String())
	want, got := runBoth(t, data, 48, 2)
	parsertest.RequireResultEqual(t, "span", want, got)
	if len(want.Records) == 0 {
		t.Fatal("test is vacuous: no records extracted")
	}
	for _, r := range want.Records {
		if r.EndLine-r.StartLine < 2 {
			t.Fatalf("test is vacuous: single-line record %+v", r)
		}
	}
}

// TestNoiseAtShardEdges interleaves noise with records so shard cuts land
// on noise lines and on record boundaries alike.
func TestNoiseAtShardEdges(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "%d,%d,%d,%d\n", i, i*3, i*5, i*7)
		if i%3 == 0 {
			fmt.Fprintf(&b, "### corrupted garbage %d @@\n", i)
		}
	}
	data := []byte(b.String())
	for _, shard := range []int{16, 57, 256, 4096} {
		want, got := runBoth(t, data, shard, 3)
		parsertest.RequireResultEqual(t, fmt.Sprintf("shard%d", shard), want, got)
	}
	if want, _ := runBoth(t, data, 4096, 1); len(want.NoiseLines) == 0 {
		t.Fatal("test is vacuous: no noise lines")
	}
}

// TestNoTrailingNewline checks the unterminated final line is handled
// across the deferral logic.
func TestNoTrailingNewline(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "%d,%d,%d\n", i, i*3, i*5)
	}
	b.WriteString("tail,without,newline")
	want, got := runBoth(t, []byte(b.String()), 32, 2)
	parsertest.RequireResultEqual(t, "notrailing", want, got)
}

// TestEmptyInput: an input without a byte is an error at both doors.
func TestEmptyInput(t *testing.T) {
	if _, err := Run(bytes.NewReader(nil), Config{}); err != core.ErrEmptyInput {
		t.Fatalf("Run: err = %v, want ErrEmptyInput", err)
	}
	if _, err := RunBytes(context.Background(), nil, Config{}); err != core.ErrEmptyInput {
		t.Fatalf("RunBytes: err = %v, want ErrEmptyInput", err)
	}
}

// TestOnRecordStreams checks the constant-memory callback mode yields
// every record exactly once, in order within a type, and that an error
// aborts the run.
func TestOnRecordStreams(t *testing.T) {
	d := datagen.CommaSepRecords(500, 3)
	want := parsertest.Apply(discoverTemplates(t, d.Data), d.Data)
	var got []core.RecordOut
	res, err := Run(bytes.NewReader(d.Data), Config{
		ShardSize: 256,
		OnRecord:  func(r core.RecordOut) error { got = append(got, r); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 {
		t.Errorf("Result.Records = %d, want 0 in callback mode", len(res.Records))
	}
	// Single-type data: callback order must equal the reference's order.
	if !reflect.DeepEqual(got, want.Records) {
		t.Fatalf("streamed records differ: %d vs %d", len(got), len(want.Records))
	}

	stop := fmt.Errorf("stop")
	n := 0
	_, err = Run(bytes.NewReader(d.Data), Config{
		ShardSize: 256,
		OnRecord: func(core.RecordOut) error {
			n++
			if n == 3 {
				return stop
			}
			return nil
		},
	})
	if err != stop {
		t.Fatalf("err = %v, want callback error", err)
	}
	if n != 3 {
		t.Fatalf("callback ran %d times after abort, want 3", n)
	}
}

// repeatReader serves count copies of block without materializing them —
// the synthetic large-log source for the bounded-memory check.
type repeatReader struct {
	block []byte
	count int
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.count == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.block[r.off:])
	r.off += n
	if r.off == len(r.block) {
		r.off = 0
		r.count--
	}
	return n, nil
}

// TestBoundedMemoryLargeInput streams a >100 MB synthetic log through the
// callback mode and checks the engine never buffers the input: heap usage
// stays far below the input size.
func TestBoundedMemoryLargeInput(t *testing.T) {
	if testing.Short() {
		t.Skip("streams >100 MB")
	}
	var b strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&b, "10.0.%d.%d GET /api/v1/item/%d 200 %d\n", i%256, (i*7)%256, i, 1000+i)
	}
	block := []byte(b.String())
	count := (110 << 20) / len(block)
	total := int64(len(block)) * int64(count)
	if total < 100<<20 {
		t.Fatalf("input only %d bytes", total)
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	records := 0
	res, err := Run(&repeatReader{block: block, count: count}, Config{
		OnRecord: func(core.RecordOut) error { records++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	if records == 0 || len(res.Structures) == 0 {
		t.Fatalf("extracted nothing: %d records, %d structures", records, len(res.Structures))
	}
	// The discovery prefix (8 MiB) plus a few shards per stage must be
	// the high-water mark — nothing close to the 110 MiB input.
	if grew := int64(after.HeapInuse) - int64(before.HeapInuse); grew > 64<<20 {
		t.Errorf("heap grew %d MiB streaming a %d MiB input — input is being buffered",
			grew>>20, total>>20)
	}
	t.Logf("streamed %d MiB, %d records, %d structures", total>>20, records, len(res.Structures))
}

// TestTemplatesModeMatchesApplyTemplates checks the discovery-free path
// against the oracle's residue chain (parsertest.Apply) on a two-type
// input: same structures, records and noise, with no prefix buffering
// involved.
func TestTemplatesModeMatchesApplyTemplates(t *testing.T) {
	d := datagen.InterleavedTypes(2, 150, 11)
	tpls := discoverTemplates(t, d.Data)
	if len(tpls) < 2 {
		t.Fatalf("test is vacuous: %d structures", len(tpls))
	}
	want := parsertest.Apply(tpls, d.Data)
	for _, shard := range []int{128, 8 << 10} {
		got, err := Run(bytes.NewReader(d.Data), Config{
			ShardSize: shard,
			Workers:   3,
			Templates: tpls,
		})
		if err != nil {
			t.Fatal(err)
		}
		parsertest.RequireResultEqual(t, fmt.Sprintf("apply/shard%d", shard), want, got)
	}
}

// TestPrecompiledMatchersEquivalence runs one shared precompiled matcher
// set — a registry entry's, as the crawl and the serve daemon pass it —
// concurrently, with Templates unset, and checks every run is
// byte-identical to the reference and ran no discovery. Setting Templates
// as well is rejected.
func TestPrecompiledMatchersEquivalence(t *testing.T) {
	d := datagen.InterleavedTypes(2, 150, 11)
	tpls := discoverTemplates(t, d.Data)
	want := parsertest.Apply(tpls, d.Data)
	matchers := make([]*parser.Matcher, len(tpls))
	for i, tpl := range tpls {
		matchers[i] = parser.NewMatcher(tpl)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	results := make([]*core.Result, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = Run(bytes.NewReader(d.Data), Config{
				ShardSize: 8 << 10,
				Workers:   2,
				Matchers:  matchers,
			})
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		parsertest.RequireResultEqual(t, fmt.Sprintf("precompiled/run%d", g), want, results[g])
		if gen := results[g].Timing.Generation; gen != 0 {
			t.Fatalf("run %d: a Matchers-only run spent %v in discovery", g, gen)
		}
	}
	if _, err := Run(bytes.NewReader(d.Data), Config{Templates: tpls, Matchers: matchers}); err == nil {
		t.Fatal("Matchers and Templates both set: accepted")
	}
}

// TestTemplatesModeEmptyInput: templates do not make an empty input
// extractable.
func TestTemplatesModeEmptyInput(t *testing.T) {
	tpls := discoverTemplates(t, datagen.CommaSepRecords(10, 1).Data)
	if _, err := Run(bytes.NewReader(nil), Config{Templates: tpls}); err != core.ErrEmptyInput {
		t.Fatalf("Run: err = %v, want ErrEmptyInput", err)
	}
	if _, err := RunBytes(context.Background(), nil, Config{Templates: tpls}); err != core.ErrEmptyInput {
		t.Fatalf("RunBytes: err = %v, want ErrEmptyInput", err)
	}
}

// TestFieldTerminalProfileTemplate covers templates that do not end in
// '\n' — never produced by discovery, but legal in hand-written profiles
// (Profile.UnmarshalJSON does not require newline termination). The
// engine must neither panic on zero-length fields at the window end nor
// finalize boundary matches a whole-input scan would decide differently.
func TestFieldTerminalProfileTemplate(t *testing.T) {
	tpl := template.Struct(template.Lit("x\n"), template.Field()).Normalize()
	inputs := []string{
		"x\n",                          // empty field at EOF
		"x\nx\nx\n",                    // stacked: field matches empty between records
		"x\nfield-value-line\nx\ntail", // field consuming a full line, unterminated tail
		strings.Repeat("x\nYY\n", 200), // shard boundaries land after "x\n" lines
	}
	for _, in := range inputs {
		want := parsertest.Apply([]*template.Node{tpl}, []byte(in))
		for _, shard := range []int{2, 5, 64} {
			got, err := Run(strings.NewReader(in), Config{
				ShardSize: shard,
				Templates: []*template.Node{tpl},
			})
			if err != nil {
				t.Fatalf("shard %d: %v", shard, err)
			}
			parsertest.RequireResultEqual(t, fmt.Sprintf("fieldterm/%q/shard%d", in[:min(len(in), 12)], shard), want, got)
		}
	}
}

// TestOverlappingRecordsProfileTemplate covers a hand-written format whose
// records start inside one another: three-line records, every line of
// which starts one, broken by a line that starts none. Worker ranges that
// begin inside a record keep different records than the greedy walk
// accepts, so the walk's records are re-extracted; the output must still be
// the oracle's at every shard size and worker count.
func TestOverlappingRecordsProfileTemplate(t *testing.T) {
	fld, lit := template.Field, template.Lit
	tpl := template.Struct(fld(), lit(","), fld(), lit("\n"), fld(), lit(","), fld(), lit("\n"),
		fld(), lit(","), fld(), lit("\n")).Normalize()
	var b bytes.Buffer
	for i := range 3000 {
		if i%11 == 10 {
			b.WriteString("noise\n")
		} else {
			fmt.Fprintf(&b, "%d,%d\n", i, i*7)
		}
	}
	tpls := []*template.Node{tpl}
	want := parsertest.Apply(tpls, b.Bytes())
	for _, shard := range []int{64, 4 << 10, 0} {
		for _, workers := range []int{1, 2, 8} {
			got, err := Run(bytes.NewReader(b.Bytes()), Config{Templates: tpls, ShardSize: shard, Workers: workers})
			if err != nil {
				t.Fatalf("shard %d, workers %d: %v", shard, workers, err)
			}
			parsertest.RequireResultEqual(t, fmt.Sprintf("overlapping/shard%d/workers%d", shard, workers), want, got)
		}
	}
}

// TestOnNoiseStreams checks noise indices stream through the callback in
// order instead of accumulating, and that its error aborts the run.
func TestOnNoiseStreams(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "%d,%d,%d\n", i, i*3, i*5)
		if i%3 == 0 {
			fmt.Fprintf(&b, "### corrupted garbage %d @@\n", i)
		}
	}
	data := []byte(b.String())
	want := parsertest.Apply(discoverTemplates(t, data), data)
	if len(want.NoiseLines) == 0 {
		t.Fatal("test is vacuous: no noise")
	}
	var got []int
	res, err := Run(bytes.NewReader(data), Config{
		ShardSize: 256,
		OnRecord:  func(core.RecordOut) error { return nil },
		OnNoise:   func(line int) error { got = append(got, line); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NoiseLines) != 0 {
		t.Errorf("Result.NoiseLines = %d, want 0 in callback mode", len(res.NoiseLines))
	}
	if !reflect.DeepEqual(got, want.NoiseLines) {
		t.Fatalf("streamed noise = %v, want %v", got, want.NoiseLines)
	}

	stop := fmt.Errorf("stop")
	if _, err := Run(bytes.NewReader(data), Config{
		ShardSize: 256,
		OnNoise:   func(int) error { return stop },
	}); err != stop {
		t.Fatalf("err = %v, want callback error", err)
	}
}

// TestShardWorkerInvariance pins the engine's own guarantee, separately
// from its agreement with the oracle: the whole input in one batch on one
// worker ≡ 64-byte shards on eight workers, through either door.
func TestShardWorkerInvariance(t *testing.T) {
	inputs := map[string][]byte{
		"interleaved":  datagen.InterleavedTypes(2, 150, 11).Data,
		"noisy":        noisyCommaData(300),
		"unterminated": append(datagen.CommaSepRecords(50, 2).Data, []byte("7,8")...),
	}
	for name, data := range inputs {
		tpls := discoverTemplates(t, data)
		whole, err := RunBytes(context.Background(), data, Config{ShardSize: len(data) + 1, Workers: 1, Templates: tpls})
		if err != nil {
			t.Fatal(err)
		}
		if len(whole.Records) == 0 {
			t.Fatalf("%s: test is vacuous: no records", name)
		}
		sliced, err := RunBytes(context.Background(), data, Config{ShardSize: 64, Workers: 8, Templates: tpls})
		if err != nil {
			t.Fatal(err)
		}
		parsertest.RequireResultEqual(t, name+"/bytes", whole, sliced)
		streamed, err := Run(bytes.NewReader(data), Config{ShardSize: 64, Workers: 8, Templates: tpls})
		if err != nil {
			t.Fatal(err)
		}
		parsertest.RequireResultEqual(t, name+"/reader", whole, streamed)
	}
}

// TestRunBytesMatchesRun: with the input inside the discovery budget, the
// slice door and the reader door discover the same templates and extract
// the same result; past the budget the reader learns from its prefix only,
// which is the one place the two may part.
func TestRunBytesMatchesRun(t *testing.T) {
	d := datagen.InterleavedTypes(2, 150, 11)
	mem, err := RunBytes(context.Background(), d.Data, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(mem.Structures) < 2 {
		t.Fatalf("test is vacuous: %d structures", len(mem.Structures))
	}
	parsertest.RequireResultEqual(t, "bytes/oracle", parsertest.Apply(templatesOf(mem), d.Data), mem)
	streamed, err := Run(bytes.NewReader(d.Data), Config{ShardSize: 128, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	parsertest.RequireResultEqual(t, "reader", mem, streamed)

	// A budget of one shard: discovery sees a prefix, extraction all of it.
	short, err := Run(bytes.NewReader(d.Data), Config{ShardSize: 1 << 10, DiscoveryBudget: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	parsertest.RequireResultEqual(t, "prefix/oracle", parsertest.Apply(templatesOf(short), d.Data), short)
}

// failAfterCancel fails the test when the engine reads from it once the
// context it watches is done.
type failAfterCancel struct {
	t   *testing.T
	ctx context.Context
	r   io.Reader
}

func (f *failAfterCancel) Read(p []byte) (int, error) {
	if f.ctx.Err() != nil {
		f.t.Error("Read called after the context was cancelled")
	}
	return f.r.Read(p)
}

// TestCancelledBeforeStartReadsNothing: a run whose context is already
// done must not read the discovery prefix, let alone search it.
func TestCancelledBeforeStartReadsNothing(t *testing.T) {
	d := datagen.CommaSepRecords(500, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, &failAfterCancel{t: t, ctx: ctx, r: bytes.NewReader(d.Data)}, Config{})
	if err != context.Canceled {
		t.Fatalf("RunContext: err = %v, want context.Canceled", err)
	}
	if _, err := RunBytes(ctx, d.Data, Config{}); err != context.Canceled {
		t.Fatalf("RunBytes: err = %v, want context.Canceled", err)
	}
}

// TestCancelDuringDiscovery cancels from inside the reader, at the read
// that ends the prefix: discovery must notice instead of searching to the
// end and extracting.
func TestCancelDuringDiscovery(t *testing.T) {
	d := datagen.CommaSepRecords(500, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := io.MultiReader(bytes.NewReader(d.Data), readerFunc(func([]byte) (int, error) {
		cancel()
		return 0, io.EOF
	}))
	records := 0
	_, err := RunContext(ctx, r, Config{OnRecord: func(core.RecordOut) error { records++; return nil }})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if records != 0 {
		t.Fatalf("%d records extracted after the cancel", records)
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// TestRecordsOutliveTheirBatch pins the slab contract at the engine's own
// door: every record handed to OnRecord is kept, compared only after the
// run — when every later batch has been through the stage's scratch — and
// must still equal the oracle's; Fields and Arrays are capacity-clipped,
// so appending to one record's never writes into the next record's.
func TestRecordsOutliveTheirBatch(t *testing.T) {
	fld := template.Field
	nested := template.Array([]*template.Node{
		template.Array([]*template.Node{template.Array([]*template.Node{fld()}, ',', ';')}, '+', '|'),
	}, ' ', '\n').Normalize()
	interleaved := datagen.InterleavedTypes(2, 200, 9)
	cases := []struct {
		name string
		tpls []*template.Node
		data []byte
	}{
		{"interleaved types", discoverTemplates(t, interleaved.Data), interleaved.Data},
		{"nested arrays", []*template.Node{nested},
			bytes.Repeat([]byte("a,b;+c;| d;|\ne;+f,g;+h;|\nnoise line\nk;|\n"), 150)},
	}
	for _, c := range cases {
		want := parsertest.Apply(c.tpls, c.data)
		for _, cfg := range []Config{{ShardSize: 64, Workers: 8}, {}} {
			cfg.Templates = c.tpls
			byType := make([][]core.RecordOut, len(c.tpls))
			cfg.OnRecord = func(r core.RecordOut) error {
				byType[r.TypeID] = append(byType[r.TypeID], r)
				return nil
			}
			if _, err := RunBytes(context.Background(), c.data, cfg); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			var kept []core.RecordOut
			for _, recs := range byType {
				kept = append(kept, recs...)
			}
			label := fmt.Sprintf("%s/shard%d", c.name, cfg.ShardSize)
			if len(kept) != len(want.Records) || len(kept) < 2 {
				t.Fatalf("%s: kept %d records, want %d", label, len(kept), len(want.Records))
			}
			for i := range kept {
				if !reflect.DeepEqual(kept[i], want.Records[i]) {
					t.Fatalf("%s: kept record %d = %+v, want %+v", label, i, kept[i], want.Records[i])
				}
				if cap(kept[i].Fields) != len(kept[i].Fields) || cap(kept[i].Arrays) != len(kept[i].Arrays) {
					t.Fatalf("%s: record %d: Fields cap %d len %d, Arrays cap %d len %d", label, i,
						cap(kept[i].Fields), len(kept[i].Fields), cap(kept[i].Arrays), len(kept[i].Arrays))
				}
			}
			for i := range kept[:len(kept)-1] {
				_ = append(kept[i].Fields, core.FieldValue{Value: "intruder"})
				_ = append(kept[i].Arrays, parser.ArrayOcc{Arr: -1})
				if !reflect.DeepEqual(kept[i+1], want.Records[i+1]) {
					t.Fatalf("%s: appending to record %d changed record %d", label, i, i+1)
				}
			}
		}
	}
}

// runIn is RunBytes in a scratch of the caller's choosing, so a test can
// put two runs through the very same storage whatever the pool would have
// handed out (under the race detector a sync.Pool drops entries at random).
func runIn(t *testing.T, sc *scratch, data []byte, cfg Config) *core.Result {
	t.Helper()
	e, err := start(context.Background(), cfg.withDefaults(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.feedAll(context.Background(), data); err != nil {
		t.Fatal(err)
	}
	res, err := e.finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLargeScratchIsNotPooled holds the pool to what it is for: the scratch
// of a file-sized run goes back to it, a scratch grown to tens of megabytes
// — which its run has spread over its own bytes — does not, so a long
// extraction leaves no heap behind for whatever the process does next to
// be paced by.
func TestLargeScratchIsNotPooled(t *testing.T) {
	small := datagen.WebServerLog(150, 3).Data
	tpls := discoverTemplates(t, small)
	sc := new(scratch)
	runIn(t, sc, small, Config{Templates: tpls})
	if fp := sc.footprint(); fp < cap(sc.stages[0].buf) || fp > maxPooledScratch {
		t.Fatalf("a %d-byte run's scratch weighs %d: want its window counted and at most %d", len(small), fp, maxPooledScratch)
	}
	// One batch of three default shards' bytes grows the scratch a long
	// run over a many-field format leaves behind, some 35 MB.
	large := datagen.WebServerLog(40000, 3).Data
	runIn(t, sc, large, Config{Templates: tpls, Workers: 2, ShardSize: 4 * DefaultShardSize})
	if fp := sc.footprint(); fp <= maxPooledScratch {
		t.Fatalf("a %d-byte run's scratch weighs %d: the test needs one past %d", len(large), fp, maxPooledScratch)
	}
	sc.release()
	// Empty the pool as far as this goroutine can see into it: New's
	// scratch, which holds nothing, marks the end.
	for {
		got := scratchPool.Get().(*scratch)
		if got == sc {
			t.Fatalf("the pool kept a scratch of %d bytes", sc.footprint())
		}
		if got.footprint() == 0 {
			break
		}
	}
}

// TestRecordsOutliveTheScratchOfTheirRun is the third of the retention
// tests: what a run borrows from the pool goes back to it and is
// overwritten by whichever run takes it next, so nothing a run hands out —
// Result.Records, Result.NoiseLines, a record kept from OnRecord — may lean
// on it. Run A's outputs are kept, run B (other data, same and other
// templates, smaller and larger batches) is put through A's own scratch,
// and only then is A compared to the oracle; then the same through the
// public door from several goroutines at once, which is what the race
// detector is given to look at.
func TestRecordsOutliveTheScratchOfTheirRun(t *testing.T) {
	interleaved := datagen.InterleavedTypes(2, 200, 9)
	tpls := discoverTemplates(t, interleaved.Data)
	other := datagen.InterleavedTypes(2, 300, 4).Data
	web := datagen.WebServerLog(150, 3).Data
	webTpls := discoverTemplates(t, web)

	t.Run("same goroutine", func(t *testing.T) {
		want := parsertest.Apply(tpls, interleaved.Data)
		for _, shard := range []int{64, 0} {
			sc := new(scratch)
			var streamed []core.RecordOut
			a := runIn(t, sc, interleaved.Data, Config{Templates: tpls, ShardSize: shard})
			runIn(t, sc, interleaved.Data, Config{Templates: tpls, ShardSize: shard, OnRecord: func(r core.RecordOut) error {
				streamed = append(streamed, r)
				return nil
			}})
			if len(sc.stages) != len(tpls) || cap(sc.stages[0].buf) == 0 {
				t.Fatalf("shard %d: the runs left no trace in their scratch: it is not what they worked in", shard)
			}
			// B: twice over, so that every buffer A used is written again.
			runIn(t, sc, other, Config{Templates: tpls, ShardSize: shard})
			runIn(t, sc, web, Config{Templates: webTpls, ShardSize: 256})
			if !reflect.DeepEqual(a.Records, want.Records) || !reflect.DeepEqual(a.NoiseLines, want.NoiseLines) {
				t.Fatalf("shard %d: run A's result changed once its scratch was reused", shard)
			}
			byType := make([][]core.RecordOut, len(tpls))
			for _, r := range streamed {
				byType[r.TypeID] = append(byType[r.TypeID], r)
			}
			var kept []core.RecordOut
			for _, recs := range byType {
				kept = append(kept, recs...)
			}
			if !reflect.DeepEqual(kept, want.Records) {
				t.Fatalf("shard %d: records kept from OnRecord changed once the scratch was reused", shard)
			}
		}
	})

	t.Run("concurrently", func(t *testing.T) {
		inputs := []struct {
			data []byte
			tpls []*template.Node
		}{{interleaved.Data, tpls}, {other, tpls}, {web, webTpls}}
		const goroutines, rounds = 4, 6
		kept := make([][]*core.Result, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					in := inputs[(g+r)%len(inputs)]
					res, err := RunBytes(context.Background(), in.data, Config{Templates: in.tpls, Workers: 1 + r%2, ShardSize: 512 << (r % 3)})
					if err != nil {
						t.Error(err)
						return
					}
					kept[g] = append(kept[g], res)
				}
			}(g)
		}
		wg.Wait()
		for g := range kept {
			for r, res := range kept[g] {
				in := inputs[(g+r)%len(inputs)]
				want := parsertest.Apply(in.tpls, in.data)
				if !reflect.DeepEqual(res.Records, want.Records) || !reflect.DeepEqual(res.NoiseLines, want.NoiseLines) {
					t.Fatalf("goroutine %d, run %d: result differs from the oracle after the runs that followed it", g, r)
				}
			}
		}
	})
}
