package query

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"datamaran/internal/lake"
	"datamaran/internal/semtype"
)

// memCatalog is an in-memory Catalog for tests.
type memCatalog map[string]*memTable

// memTable is one in-memory table; its scans hand its rows out batch
// rows at a time (batchRows when 0).
type memTable struct {
	meta  lake.TableInfo
	rows  [][]string
	batch int
}

func (c memCatalog) Resolve(name string) (lake.TableInfo, error) {
	t, ok := c[name]
	if !ok {
		return lake.TableInfo{}, fmt.Errorf("no table %q", name)
	}
	return t.meta, nil
}

func (c memCatalog) Scan(name string) (BatchScan, error) {
	t, ok := c[name]
	if !ok {
		return nil, fmt.Errorf("no table %q", name)
	}
	return newMemScan(t), nil
}

// rebatched is the catalog with every table cut into batches of n rows.
func (c memCatalog) rebatched(n int) memCatalog {
	out := memCatalog{}
	for name, t := range c {
		cut := *t
		cut.batch = n
		out[name] = &cut
	}
	return out
}

// memScan scans a memTable. Like the store's scan, it reuses its batch
// vectors from one NextBatch to the next.
type memScan struct {
	rows    [][]string
	size    int
	b       lake.Batch
	reads   int // rows handed out
	batches int
}

func newMemScan(t *memTable) *memScan {
	size := t.batch
	if size == 0 {
		size = batchRows
	}
	return &memScan{rows: t.rows, size: size, b: lake.Batch{Cols: make([][]string, len(t.meta.Columns))}}
}

func (m *memScan) NextBatch() (*lake.Batch, error) {
	if m.reads >= len(m.rows) {
		return nil, io.EOF
	}
	part := m.rows[m.reads:min(m.reads+m.size, len(m.rows))]
	for c := range m.b.Cols {
		m.b.Cols[c] = m.b.Cols[c][:0]
		for _, row := range part {
			m.b.Cols[c] = append(m.b.Cols[c], row[c])
		}
	}
	m.b.Rows = len(part)
	m.reads += len(part)
	m.batches++
	return &m.b, nil
}

// BlockStats counts each batch as a decoded block.
func (m *memScan) BlockStats() (decoded, pruned, rows int) { return m.batches, 0, m.reads }

func (m *memScan) Close() error { return nil }

func mkTable(name string, cols []string, kinds []semtype.Kind, rows ...[]string) *memTable {
	return &memTable{
		meta: lake.TableInfo{Name: name, Columns: cols, Kinds: kinds, Rows: len(rows)},
		rows: rows,
	}
}

// fixture: jobs (id, queue, state) and hosts (host, rack).
func fixtureCatalog() memCatalog {
	return memCatalog{
		"jobs": mkTable("jobs",
			[]string{"f0", "f1", "f2"},
			[]semtype.Kind{semtype.KindInt, semtype.KindString, semtype.KindString},
			[]string{"1", "q1", "DONE"},
			[]string{"2", "q2", "FAILED"},
			[]string{"3", "q1", "DONE"},
			[]string{"4", "q3", "RUNNING"},
			[]string{"10", "q1", "DONE"},
		),
		"hosts": mkTable("hosts",
			[]string{"f0", "f1"},
			[]semtype.Kind{semtype.KindString, semtype.KindString},
			[]string{"q1", "east"},
			[]string{"q2", "west"},
		),
	}
}

// collect parses and drains a query; see runEngine.
func collect(t *testing.T, cat Catalog, text string) ([]string, [][]string) {
	t.Helper()
	q, err := Parse(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	return runEngine(t, cat, q)
}

// batchSizes are the rows per batch a memCatalog is run at: a batch per
// row, batches that cut every table of more than three rows, and the
// engine's own batch size, which holds a small table whole.
var batchSizes = []int{1, 3, batchRows}

// runEngine drains a query into its columns and rows. Over a memCatalog
// it runs the query at every size of batchSizes and requires the same
// rows in the same order from each, so what an operator keeps from one
// batch to the next (a join's build side, groups, a sort, the top-k
// heap, a limit's count) is tested on the small tables too.
func runEngine(t *testing.T, cat Catalog, q *Query) ([]string, [][]string) {
	t.Helper()
	mem, ok := cat.(memCatalog)
	if !ok {
		return drain(t, cat, q)
	}
	var cols []string
	var want [][]string
	for i, n := range batchSizes {
		c, got := drain(t, mem.rebatched(n), q)
		if i == 0 {
			cols, want = c, got
		} else if !rowsEqual(got, want) {
			t.Fatalf("%+v: at %d rows per batch\n%q\nwant (as at %d rows per batch)\n%q", q, n, got, batchSizes[0], want)
		}
	}
	return cols, want
}

func drain(t *testing.T, cat Catalog, q *Query) ([]string, [][]string) {
	t.Helper()
	rows, err := Run(context.Background(), cat, q)
	if err != nil {
		t.Fatalf("run %+v: %v", q, err)
	}
	defer rows.Close()
	var out [][]string
	for {
		row, err := rows.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("next %+v: %v", q, err)
		}
		out = append(out, row)
	}
	return rows.Columns(), out
}

func rowsEqual(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if strings.Join(a[i], "\x00") != strings.Join(b[i], "\x00") {
			return false
		}
	}
	return true
}

func TestParseBasics(t *testing.T) {
	q, err := Parse("SELECT j.f1, count(*) FROM 42f99400 AS j, 570eebfb m WHERE j.f2 = 'DONE' AND j.f1 = m.f0 GROUP BY j.f1 ORDER BY count(*) DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 2 || q.Select[0].String() != "j.f1" || q.Select[1].String() != "count(*)" {
		t.Fatalf("select: %+v", q.Select)
	}
	if len(q.From) != 2 || q.From[0].Alias != "j" || q.From[1].Alias != "m" || q.From[1].Table != "570eebfb" {
		t.Fatalf("from: %+v", q.From)
	}
	if len(q.Where) != 2 || !q.Where[0].IsLit || q.Where[0].Lit != "DONE" || q.Where[1].IsLit {
		t.Fatalf("where: %+v", q.Where)
	}
	if len(q.GroupBy) != 1 || len(q.OrderBy) != 1 || !q.OrderBy[0].Desc || q.Limit != 5 {
		t.Fatalf("tail: %+v", q)
	}
}

func TestParseHexTableNames(t *testing.T) {
	// Digit-led fingerprints must lex as one token.
	q, err := Parse("select * from 42f99400cddeb649")
	if err != nil {
		t.Fatal(err)
	}
	if q.From[0].Table != "42f99400cddeb649" {
		t.Fatalf("table: %+v", q.From)
	}
	// And the "_<k>" record-type suffix.
	q, err = Parse("select * from 42f99400cddeb649_1")
	if err != nil {
		t.Fatal(err)
	}
	if q.From[0].Table != "42f99400cddeb649_1" {
		t.Fatalf("table: %+v", q.From)
	}
}

func TestParseErrors(t *testing.T) {
	for _, text := range []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t LIMIT x",
		"SELECT f0 FROM t GROUP BY f1",            // f0 not grouped
		"SELECT *, count(*) FROM t",               // star + agg
		"SELECT sum(*) FROM t",                    // sum(*)
		"SELECT f0 FROM t a, u a",                 // duplicate alias
		"SELECT f0 FROM t WHERE f0 ~ 'x'",         // bad operator
		"SELECT f0 FROM t WHERE f0 = 'unclosed",   // unterminated string
		"SELECT f0 FROM t extra tokens here okay", // trailing garbage
	} {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", text)
		}
	}
}

func TestSelectionProjection(t *testing.T) {
	cat := fixtureCatalog()
	cols, rows := collect(t, cat, "SELECT f0, f2 FROM jobs WHERE f1 = 'q1'")
	if strings.Join(cols, ",") != "f0,f2" {
		t.Fatalf("columns: %v", cols)
	}
	want := [][]string{{"1", "DONE"}, {"3", "DONE"}, {"10", "DONE"}}
	if !rowsEqual(rows, want) {
		t.Fatalf("rows: %v, want %v", rows, want)
	}
}

func TestNumericComparison(t *testing.T) {
	cat := fixtureCatalog()
	// f0 is an int column: 10 > 3 numerically (lexicographically "10" < "3").
	_, rows := collect(t, cat, "SELECT f0 FROM jobs WHERE f0 > 3")
	want := [][]string{{"4"}, {"10"}}
	if !rowsEqual(rows, want) {
		t.Fatalf("numeric compare rows: %v, want %v", rows, want)
	}
	// A string column compares lexicographically.
	_, rows = collect(t, cat, "SELECT f2 FROM jobs WHERE f2 < 'E'")
	want = [][]string{{"DONE"}, {"DONE"}, {"DONE"}}
	if !rowsEqual(rows, want) {
		t.Fatalf("lexicographic rows: %v, want %v", rows, want)
	}
}

func TestEquiJoin(t *testing.T) {
	cat := fixtureCatalog()
	cols, rows := collect(t, cat,
		"SELECT j.f0, h.f1 FROM jobs AS j, hosts AS h WHERE j.f1 = h.f0 AND j.f2 = 'DONE'")
	if strings.Join(cols, ",") != "j.f0,h.f1" {
		t.Fatalf("columns: %v", cols)
	}
	want := [][]string{{"1", "east"}, {"3", "east"}, {"10", "east"}}
	if !rowsEqual(rows, want) {
		t.Fatalf("join rows: %v, want %v", rows, want)
	}
}

func TestSelectStarJoin(t *testing.T) {
	cat := fixtureCatalog()
	cols, rows := collect(t, cat,
		"SELECT * FROM jobs AS j, hosts AS h WHERE j.f1 = h.f0 AND j.f0 = 2")
	if strings.Join(cols, ",") != "j.f0,j.f1,j.f2,h.f0,h.f1" {
		t.Fatalf("columns: %v", cols)
	}
	want := [][]string{{"2", "q2", "FAILED", "q2", "west"}}
	if !rowsEqual(rows, want) {
		t.Fatalf("rows: %v, want %v", rows, want)
	}
}

func TestGroupByAggregates(t *testing.T) {
	cat := fixtureCatalog()
	cols, rows := collect(t, cat,
		"SELECT f1, count(*), sum(f0), min(f0), max(f0), avg(f0) FROM jobs GROUP BY f1")
	if strings.Join(cols, ",") != "f1,count(*),sum(f0),min(f0),max(f0),avg(f0)" {
		t.Fatalf("columns: %v", cols)
	}
	// Groups in first-seen order: q1, q2, q3.
	want := [][]string{
		{"q1", "3", "14", "1", "10", "4.666666666666667"},
		{"q2", "1", "2", "2", "2", "2"},
		{"q3", "1", "4", "4", "4", "4"},
	}
	if !rowsEqual(rows, want) {
		t.Fatalf("rows: %v, want %v", rows, want)
	}
}

func TestGlobalAggregateEmptyInput(t *testing.T) {
	cat := fixtureCatalog()
	_, rows := collect(t, cat, "SELECT count(*) FROM jobs WHERE f1 = 'nope'")
	if !rowsEqual(rows, [][]string{{"0"}}) {
		t.Fatalf("rows: %v", rows)
	}
}

func TestOrderByLimit(t *testing.T) {
	cat := fixtureCatalog()
	_, rows := collect(t, cat, "SELECT f0 FROM jobs ORDER BY f0 DESC LIMIT 2")
	want := [][]string{{"10"}, {"4"}}
	if !rowsEqual(rows, want) {
		t.Fatalf("rows: %v, want %v", rows, want)
	}
	_, rows = collect(t, cat,
		"SELECT f1, count(*) FROM jobs GROUP BY f1 ORDER BY count(*) DESC, f1")
	want = [][]string{{"q1", "3"}, {"q2", "1"}, {"q3", "1"}}
	if !rowsEqual(rows, want) {
		t.Fatalf("rows: %v, want %v", rows, want)
	}
}

func TestEmptyBuildSideSkipsProbe(t *testing.T) {
	// The planner starts at hosts (most selective: 1 eq-lit pred after
	// the impossible filter is on hosts)… regardless of order, when one
	// join side is empty the other side must not be drained.
	cat := fixtureCatalog()
	probe := cat["jobs"]
	it := newMemScan(probe)
	tracked := memCatalog{
		"jobs":  probe,
		"hosts": cat["hosts"],
	}
	// Wrap jobs' scan to count reads.
	wrapped := trackingCatalog{inner: tracked, track: map[string]*memScan{"jobs": it}}
	q, err := Parse("SELECT j.f0 FROM jobs AS j, hosts AS h WHERE j.f1 = h.f0 AND h.f1 = 'nowhere'")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Run(context.Background(), wrapped, q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if _, err := rows.Next(); err != io.EOF {
		t.Fatalf("expected empty result, got %v", err)
	}
	if it.reads > 0 {
		t.Fatalf("probe side read %d rows despite empty build side", it.reads)
	}
}

type trackingCatalog struct {
	inner memCatalog
	track map[string]*memScan
}

func (c trackingCatalog) Resolve(name string) (lake.TableInfo, error) { return c.inner.Resolve(name) }

func (c trackingCatalog) Scan(name string) (BatchScan, error) {
	if it, ok := c.track[name]; ok {
		return it, nil
	}
	return c.inner.Scan(name)
}

func TestContextCancellation(t *testing.T) {
	// A big single-table scan with a cancelled context must error out.
	rows := make([][]string, 10000)
	for i := range rows {
		rows[i] = []string{fmt.Sprint(i)}
	}
	cat := memCatalog{"big": mkTable("big", []string{"f0"}, []semtype.Kind{semtype.KindInt}, rows...)}
	ctx, cancel := context.WithCancel(context.Background())
	q, err := Parse("SELECT f0 FROM big")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(ctx, cat, q)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if _, err := out.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	sawErr := false
	for i := 0; i < 10000; i++ {
		if _, err := out.Next(); err != nil {
			if err == io.EOF {
				t.Fatal("scan completed despite cancellation")
			}
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("cancelled scan kept going")
	}
}

// pollCtx is a context that reports cancellation from its n-th Err
// poll on: a deterministic stand-in for a deadline that passes while
// the query is deep inside an operator.
type pollCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *pollCtx) Err() error {
	if c.polls++; c.polls > c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestCancellationInsideBlockingOperators: a cross join fans two
// one-batch tables out into a thousand output batches, so once its
// inputs are read no scan runs again for the rest of the query — only
// the operators' own per-batch polls can notice a cancellation. Under
// an aggregate, a sort and a top-k alike the query must come back with
// the context's error, not run to completion (the serve daemon's 504
// path waits on exactly this).
func TestCancellationInsideBlockingOperators(t *testing.T) {
	rows := make([][]string, 1000)
	for i := range rows {
		rows[i] = []string{fmt.Sprint(i)}
	}
	cat := memCatalog{
		"l": mkTable("l", []string{"f0"}, []semtype.Kind{semtype.KindInt}, rows...),
		"r": mkTable("r", []string{"f0"}, []semtype.Kind{semtype.KindInt}, rows...),
	}
	for _, text := range []string{
		"SELECT count(*) FROM l, r",
		"SELECT l.f0, count(*) FROM l, r GROUP BY l.f0",
		"SELECT l.f0 FROM l, r ORDER BY l.f0",
		"SELECT l.f0 FROM l, r ORDER BY l.f0 DESC LIMIT 3",
	} {
		q, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		// The scans poll four times in all (a batch and the end, each);
		// the budget lets them finish and the join start expanding.
		ctx := &pollCtx{Context: context.Background(), cancelAt: 50}
		out, err := Run(ctx, cat, q)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for err == nil {
			_, err = out.Next()
			n++
		}
		out.Close()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: ended with %v after %d rows, want context.Canceled", text, err, n-1)
		}
	}
}

// TestLimitStopsAtTheBatchThatSatisfiesIt: a plain LIMIT pulls one
// batch from its scan, not the table.
func TestLimitStopsAtTheBatchThatSatisfiesIt(t *testing.T) {
	big := make([][]string, 10*batchRows)
	for i := range big {
		big[i] = []string{fmt.Sprint(i)}
	}
	tab := mkTable("big", []string{"f0"}, []semtype.Kind{semtype.KindInt}, big...)
	it := newMemScan(tab)
	cat := trackingCatalog{
		inner: memCatalog{"big": tab},
		track: map[string]*memScan{"big": it},
	}
	_, rows := collect(t, cat, "SELECT f0 FROM big LIMIT 5")
	if len(rows) != 5 || rows[4][0] != "4" {
		t.Fatalf("rows: %v", rows)
	}
	if it.reads > batchRows {
		t.Fatalf("LIMIT 5 read %d rows from the scan, want at most one batch (%d)", it.reads, batchRows)
	}
}

func TestWriters(t *testing.T) {
	cat := fixtureCatalog()
	q, err := Parse("SELECT f1, count(*) FROM jobs GROUP BY f1")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Rows {
		rows, err := Run(context.Background(), cat, q)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, run(), nil); err != nil {
		t.Fatal(err)
	}
	wantCSV := "f1,count(*)\nq1,3\nq2,1\nq3,1\n"
	if csv.String() != wantCSV {
		t.Fatalf("csv: %q, want %q", csv.String(), wantCSV)
	}
	var nd bytes.Buffer
	if err := WriteNDJSON(&nd, run(), nil); err != nil {
		t.Fatal(err)
	}
	wantND := `{"columns":["f1","count(*)"],"kinds":["string","int"]}
{"values":["q1","3"]}
{"values":["q2","1"]}
{"values":["q3","1"]}
`
	if nd.String() != wantND {
		t.Fatalf("ndjson: %q, want %q", nd.String(), wantND)
	}
}

func TestCSVQuoting(t *testing.T) {
	cat := memCatalog{"t": mkTable("t",
		[]string{"f0"}, []semtype.Kind{semtype.KindString},
		[]string{`a,"b`}, []string{"line\nbreak"})}
	q, err := Parse("SELECT f0 FROM t")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Run(context.Background(), cat, q)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, rows, nil); err != nil {
		t.Fatal(err)
	}
	want := "f0\n\"a,\"\"b\"\n\"line\nbreak\"\n"
	if csv.String() != want {
		t.Fatalf("csv: %q, want %q", csv.String(), want)
	}
}
