package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// These tests cover the helpers and the generators only; none of them
// runs a workload, and together they take well under a second.

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each xs.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if p, v := tailPercentile(xs); p != 0.9 || v != 90 {
		t.Errorf("100 samples: p%v = %v, want p0.9 = 90 (ten samples beyond)", p, v)
	}
	if p, v := tailPercentile(xs[:10]); p != 0.5 || v != median(xs[:10]) {
		t.Errorf("10 samples support only the median, got p%v = %v", p, v)
	}
	if got := percentile(xs, 0.95); got != 96 {
		t.Errorf("percentile 0.95 = %v, want 96", got)
	}
}

func TestSchedule(t *testing.T) {
	var order []string
	recorded := map[string]int{}
	sleeper := func(name string, d time.Duration) func(bool) {
		return func(timed bool) {
			order = append(order, name)
			if timed {
				recorded[name]++
			}
			time.Sleep(d)
		}
	}
	long := &measure{share: 0.6, least: 1, pass: sleeper("long", 25*time.Millisecond), clock: &kernelClock{last: time.Now().Add(time.Hour)}}
	short := &measure{share: 0.4, least: 2, warm: true, pass: sleeper("short", 2*time.Millisecond), clock: &kernelClock{last: time.Now().Add(time.Hour)}}
	schedule(100*time.Millisecond, 2, []*measure{long, short})
	if long.runs != 2 || recorded["long"] != 2 {
		t.Errorf("25 ms passes with 60%% of 100 ms ran %d times, want 2", long.runs)
	}
	if short.runs < 8 || short.spent > 60*time.Millisecond {
		t.Errorf("2 ms passes with 40%% of 100 ms ran %d times for %v", short.runs, short.spent)
	}
	// Two rounds: long, short, long, short, and each block of the warmed
	// measure starts with one pass that is not recorded.
	if blocks := strings.Count(strings.Join(order, " ")+" ", "long short "); blocks != 2 {
		t.Errorf("want two rounds of blocks, got: %s", strings.Join(order, " "))
	}
	if passes := strings.Count(strings.Join(order, " "), "short"); passes != short.runs+2 || recorded["short"] != short.runs {
		t.Errorf("%d short passes, %d timed, %d recorded: want one discarded warm-up per block", passes, short.runs, recorded["short"])
	}
	// No budget: every measure still takes its minimum.
	a := &measure{least: 2, pass: func(bool) {}, clock: &kernelClock{last: time.Now().Add(time.Hour)}}
	b := &measure{least: 3, pass: func(bool) {}, clock: &kernelClock{last: time.Now().Add(time.Hour)}}
	schedule(0, 2, []*measure{a, b})
	if a.runs != 2 || b.runs != 3 {
		t.Errorf("no budget: %d and %d passes, want the minimums 2 and 3", a.runs, b.runs)
	}
	// A pass as long as the whole share runs once, in the first round.
	once := &measure{share: 0.5, least: 1, pass: sleeper("once", 20*time.Millisecond), clock: &kernelClock{last: time.Now().Add(time.Hour)}}
	schedule(40*time.Millisecond, 2, []*measure{once})
	if once.runs != 1 {
		t.Errorf("a 20 ms pass with a 20 ms share ran %d times, want once", once.runs)
	}
}

func TestKernelClock(t *testing.T) {
	k := &kernelClock{last: time.Now().Add(-kernelEvery)}
	k.tick()
	k.tick() // kernelEvery has not passed: no new samples
	if len(k.ms) != 2 {
		t.Errorf("%d kernel samples after two ticks in a row, want 2", len(k.ms))
	}
	k.ms = []float64{14, 15, 16, 15, 90, 14, 16, 1}
	if got := k.speed(); got != 15 {
		t.Errorf("speed = %v, want 15: the mean of the middle half, the descheduled 90 and the 1 left out", got)
	}
}

func TestCalibrate(t *testing.T) {
	o := newOutcome()
	o.set("discover_s", 12)
	o.set("wide_p50_ms", 30, 40, 50)
	o.set("extract_mib_per_s", 20)
	o.set("accuracy", 1)
	o.set("store_bytes_per_input_byte", 0.93)
	o.set("core.generation_s", 6) // per-layer: never restated
	o.set("recrawl_s", 3)
	// The host ran at half the reference speed while these were measured.
	o.calibrate(2*calibrationRefMS, "discover_s", "wide_p50_ms", "extract_mib_per_s", "accuracy", "store_bytes_per_input_byte")
	for name, want := range map[string]float64{
		"discover_s": 6, "wide_p50_ms": 20, "extract_mib_per_s": 40,
		"accuracy": 1, "store_bytes_per_input_byte": 0.93, "core.generation_s": 6,
		"recrawl_s": 3, // not named: another measurement's kernel restates it
	} {
		if got := o.Metrics[name].Value; got != want {
			t.Errorf("%s = %v at the reference speed, want %v", name, got, want)
		}
	}
	if s := o.Metrics["wide_p50_ms"]; s.Raw != 40 || s.Q1 != 15 || s.Q3 != 25 {
		t.Errorf("wide_p50_ms %+v: want raw 40 kept and the quartiles restated with the median", s)
	}
	if a, b := calibrationKernel(), calibrationKernel(); a <= 0 || b <= 0 || calibrationSink == 0 {
		t.Errorf("calibration kernel took %v and %v ms", a, b)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2: 20..30 counts once
		{ID: 4, Parent: 1, Start: 60, End: 120}, // runs past its parent: clipped to 100
		{ID: 5, Parent: 3, Start: 25, End: 45},
	}
	want := map[int]int64{1: 100 - 20 - 20 - 40, 2: 20, 3: 10, 4: 60, 5: 20}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	tr := newTracer()
	tr.workload = "w"
	outer := tr.start("outer", 0)
	inner := tr.start("inner", outer)
	tr.end(inner)
	tr.end(outer)
	if tr.seconds("outer") < tr.seconds("inner") {
		t.Errorf("outer span shorter than the span inside it")
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.start("x", 0)) // a nil tracer records nothing and must not panic
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	if lines := strings.Count(string(raw), "\n"); lines != 2 {
		t.Errorf("trace file has %d lines, want one per span (2)", lines)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "t_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "r_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name   string
		d      metricDef
		a, b   []float64
		sa, sb float64
		want   string
	}{
		{"same", lower, []float64{10, 10.1, 9.9}, []float64{10, 10.2, 9.8}, 0.02, 0.04, "ok"},
		{"slower past the bound", lower, []float64{10, 10, 10}, []float64{11.5, 11.5, 11.5}, 0, 0, "regressed"},
		{"slower within the bound", lower, []float64{10, 10, 10}, []float64{10.9, 10.9, 10.9}, 0, 0, "ok"},
		{"spread wider than the bound", lower, []float64{8, 10, 12}, []float64{8, 10, 12}, 0.4, 0.4, "unresolved"},
		{"wide spread, every run better", lower, []float64{10, 12, 14}, []float64{5, 6, 7}, 0.3, 0.3, "ok"},
		{"throughput dropped", higher, []float64{100, 100}, []float64{80, 80}, 0, 0, "regressed"},
		{"throughput rose", higher, []float64{100, 100}, []float64{130, 130}, 0, 0, "ok"},
	} {
		if _, got := verdict(c.d, c.a, c.b, c.sa, c.sb); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// report builds a one-run report file whose end-to-end metrics all read
// value.
func report(t *testing.T, path string, value float64, quick bool) {
	t.Helper()
	o := newOutcome()
	for _, d := range endToEnd {
		o.set(d.Name, value)
	}
	rf := reportFile{Runs: []runReport{{Workload: "apply_stream", Seed: 1, Quick: quick, outcome: *o}}}
	raw, err := json.Marshal(rf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	a, b, slow, quick := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "slow.json"), filepath.Join(dir, "quick.json")
	report(t, a, 10, false)
	report(t, b, 10, false)
	report(t, slow, 13, false)
	report(t, quick, 10, true)
	var out bytes.Buffer
	if code := compareReports(a, b, &out, io.Discard); code != 0 {
		t.Errorf("equal reports: exit %d\n%s", code, out.String())
	}
	if rows := strings.Count(out.String(), "apply_stream"); rows != len(endToEnd) {
		t.Errorf("%d rows for one workload, want one per end-to-end metric (%d)", rows, len(endToEnd))
	}
	if !strings.Contains(out.String(), "1.0000x") {
		t.Errorf("rows do not give the ratio with its base:\n%s", out.String())
	}
	out.Reset()
	// Every metric reads 30% higher: the lower-is-better ones regressed.
	if code := compareReports(a, slow, &out, io.Discard); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("slower report: exit %d\n%s", code, out.String())
	}
	if code := compareReports(a, quick, io.Discard, io.Discard); code != 2 {
		t.Errorf("a -quick report must be refused, exit %d", code)
	}
	if rf, err := loadReport(a); err != nil || rf.Claim != nil {
		t.Errorf("report claim = %v (err %v), want null: the benchmark claims no gain", rf.Claim, err)
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	spec := lakeSpec{Bytes: 256 << 10, Files: 12}
	a, b, other := genLake(7, spec), genLake(7, spec), genLake(8, spec)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("genLake: same seed, different lakes")
	}
	if reflect.DeepEqual(a, other) {
		t.Errorf("genLake: different seeds, same lake")
	}
	if !reflect.DeepEqual(planMutation(7, a), planMutation(7, b)) {
		t.Errorf("planMutation: same seed, different plans")
	}
	if !reflect.DeepEqual(seedFiles(7), seedFiles(7)) {
		t.Errorf("seedFiles: same seed, different files")
	}
	if a, b := genDatasets(1, 0.1, true), genDatasets(2, 0.1, true); bytes.Equal(a[0].Data, b[0].Data) {
		t.Errorf("genDatasets: seeds 1 and 2 drew the same variant")
	}
	da, db := genDatasets(7, 0.1, true), genDatasets(7, 0.1, true)
	if len(da) == 0 || len(da) >= len(table5) {
		t.Fatalf("cheap subset has %d of %d datasets", len(da), len(table5))
	}
	for i := range da {
		if !bytes.Equal(da[i].Data, db[i].Data) {
			t.Errorf("genDatasets: %s differs between two builds of one seed", da[i].Name)
		}
	}
	if all := genDatasets(7, 0.1, false); len(all) != 25 {
		t.Errorf("%d datasets, want the paper's 25", len(all))
	}

	dir := t.TempDir()
	blocks := genStreamBlocks(7, 2, 50)
	var files [2][]byte
	var truths [2]streamTruth
	for i := range files {
		path := filepath.Join(dir, "stream.log")
		var err error
		if truths[i], err = genStreamFile(path, 7, 20<<10, blocks, 50); err != nil {
			t.Fatal(err)
		}
		files[i], _ = os.ReadFile(path)
	}
	if !bytes.Equal(files[0], files[1]) || truths[0] != truths[1] {
		t.Errorf("genStreamFile: same seed, different bytes")
	}
	if tr := truths[0]; tr.Bytes != int64(len(files[0])) || tr.Records*2 != tr.Noise*50 {
		t.Errorf("stream truth %+v does not describe the %d bytes written", tr, len(files[0]))
	}
}

// readTree returns every file under root by relative path.
func readTree(t *testing.T, root string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		rel, _ := filepath.Rel(root, path)
		tree[filepath.ToSlash(rel)] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestMutationAppliesAndReverts(t *testing.T) {
	files := genLake(3, lakeSpec{Bytes: 256 << 10, Files: 24})
	root := t.TempDir()
	if err := writeLake(root, files); err != nil {
		t.Fatal(err)
	}
	before := readTree(t, root)
	m := planMutation(3, files)
	data := 0
	for _, f := range files {
		if f.Grow != nil {
			data++
		}
	}
	if len(m.Remove) != 4 || len(m.Add) != 4 || len(m.Grow) < (data-4)/2-1 || len(m.Grow) > (data-4)/2 {
		t.Fatalf("plan grows %d, removes %d, adds %d of %d data files", len(m.Grow), len(m.Remove), len(m.Add), data)
	}
	if err := m.apply(root, files); err != nil {
		t.Fatal(err)
	}
	after := readTree(t, root)
	if len(after) != len(before) {
		t.Errorf("%d files after the mutation, want %d (4 removed, 4 added)", len(after), len(before))
	}
	var grown int64
	for rel, data := range after {
		if old, ok := before[rel]; ok && len(data) > len(old) {
			grown += int64(len(data) - len(old))
		}
	}
	if grown != m.Appended {
		t.Errorf("files grew by %d bytes, plan says %d", grown, m.Appended)
	}
	rows := m.rowsAfter(files)
	if rows[fmtHosts] != 16 || rows[fmtRequests] == 0 {
		t.Errorf("rows after the mutation: %v", rows)
	}
	if err := m.revert(root, files); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(readTree(t, root), before) {
		t.Errorf("revert did not restore the generated lake")
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
		RunSeconds float64  `json:"run_seconds"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	check := func(what string, got []metric, want []metricDef, bounds bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", what, len(got), len(want))
			return
		}
		for i, d := range want {
			w := metric{d.Name, d.Unit, d.Better, 0}
			if bounds {
				w.Bound = d.Bound
			}
			if got[i] != w {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", what, i, got[i], w)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("-seconds defaults to %v, BENCHMARK.json run_seconds is %v", defaultSeconds, doc.RunSeconds)
	}
}

// A wrong expectation must turn into a failed operation, an incorrect
// result line and a non-zero exit: the generator's record count is
// corrupted by one and the apply measurement run on a small file.
func TestCorruptedExpectationFailsTheRun(t *testing.T) {
	in, err := setupStream(t.TempDir(), 5, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	good := newOutcome()
	newApplyMeasure(in, good).pass(true)
	if good.Failed != 0 || good.Attempted != 2 {
		t.Fatalf("honest expectation: %d of %d operations failed: %v", good.Failed, good.Attempted, good.Failures)
	}
	in.Truth.Records++
	bad := newOutcome()
	newApplyMeasure(in, bad).pass(true)
	if bad.Failed != bad.Attempted {
		t.Fatalf("corrupted expectation: %d of %d operations failed, want all", bad.Failed, bad.Attempted)
	}
	for _, d := range endToEnd {
		bad.set(d.Name, 1)
	}
	var out bytes.Buffer
	if printRun(&out, &runReport{Workload: "apply_stream", outcome: *bad}) {
		t.Errorf("a run with failed operations reported itself correct")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Correct || last.Failed != bad.Failed {
		t.Errorf("result line %q (err %v): want correct=false and %d failed", lines[len(lines)-1], err, bad.Failed)
	}
	if !strings.Contains(out.String(), "FAILED apply:") {
		t.Errorf("the failure is not explained:\n%s", out.String())
	}
}
