package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"datamaran"
	"datamaran/internal/lake"
	"datamaran/internal/query"
	"datamaran/internal/serve"
)

// shape is one query shape with the answer the reference path gave.
type shape struct {
	Name string
	Text string
	// Rows and Sum are the row count and the order-insensitive digest
	// of the same query through query.NoPushdown, taken in set-up.
	Rows int
	Sum  uint64
}

// factScan is a stand-alone scan of the fact table: the columns and
// predicates one query shape pushes down.
type factScan struct {
	Columns []int
	Preds   []lake.ScanPred
}

// queryInput is the read side's input: a lake ingested once in set-up,
// its store pinned open as the daemon holds it, and the five shapes.
type queryInput struct {
	Lake   *lakeInput
	State  crawlState
	Store  *lake.SegmentStore
	Fact   string
	Shapes []shape
	// Scans are the fact-table scans under the shapes, by shape name
	// ("full" is every column).
	Scans map[string]factScan
	// ScanCSV is the scan shape's in-process WriteCSV output: what every
	// GET /v1/query body must equal.
	ScanCSV []byte
	// ExtractFP, ExtractBody and ExtractWant are the POST /v1/extract
	// request and the bytes the public API produces for it.
	ExtractFP   string
	ExtractBody []byte
	ExtractWant []byte
}

func (in *queryInput) shape(name string) shape {
	for _, s := range in.Shapes {
		if s.Name == name {
			return s
		}
	}
	panic("bench: no query shape " + name)
}

// scanRows is how many rows the scan shape selects: about 1% of the
// large lake's fact table. They are the tail of the last requests file,
// which holds about 2000 rows, so they sit inside that file's last
// 1024-row segment block for every seed: a cut by share of the timestamp
// range straddled one block boundary or two by the seed's luck, and the
// shape's latency followed (1.0 or 1.4 ms). A -quick file is shorter and
// gives its second half.
const scanRows = 900

// runQuery parses and runs text and drains the rows, digesting them
// when sum is set. It returns the row count, the digest and the scan
// statistics.
func runQuery(cat query.Catalog, text string, sum bool) (int, uint64, query.ExecStats, error) {
	q, err := query.Parse(text)
	if err != nil {
		return 0, 0, query.ExecStats{}, err
	}
	rows, err := query.Run(context.Background(), cat, q)
	if err != nil {
		return 0, 0, query.ExecStats{}, err
	}
	defer rows.Close()
	n, digest := 0, uint64(0)
	for {
		row, err := rows.Next()
		if err == io.EOF {
			return n, digest, rows.Stats(), nil
		}
		if err != nil {
			return 0, 0, query.ExecStats{}, err
		}
		n++
		if sum {
			digest += rowHash(row)
		}
	}
}

// writeQuery runs text and serializes the rows with write.
func writeQuery(cat query.Catalog, text string, w io.Writer, write func(io.Writer, *query.Rows, func()) error) error {
	q, err := query.Parse(text)
	if err != nil {
		return err
	}
	rows, err := query.Run(context.Background(), cat, q)
	if err != nil {
		return err
	}
	defer rows.Close()
	return write(w, rows, nil)
}

// setupQuery generates the read side's lake, ingests it the way the
// daemon would, and prepares the shapes with their reference answers.
func setupQuery(dir string, seed int64, spec lakeSpec, reg *registryInfo) (*queryInput, error) {
	lk, err := setupLake(filepath.Join(dir, "querylake"), seed^0x71, spec)
	if err != nil {
		return nil, err
	}
	in := &queryInput{Lake: lk, Fact: reg.FP[fmtRequests], ExtractFP: reg.FP[fmtRequests]}
	if in.State, err = newCrawlState(filepath.Join(dir, "daemon"), reg); err != nil {
		return nil, err
	}
	res, _, err := in.State.crawl(lk.Root)
	if err != nil {
		return nil, fmt.Errorf("ingest query lake: %w", err)
	}
	if problem := checkCrawl(res, in.State, reg, lk.rows(), 0, 0); problem != "" {
		return nil, fmt.Errorf("ingest query lake: %s", problem)
	}
	if in.Store, err = lake.OpenSegmentStore(in.State.store()); err != nil {
		return nil, err
	}
	cat := query.StoreCatalog(in.Store)

	// Columns are found by position, not by name: a request line starts
	// with timestamp and host and ends with code, latency and size,
	// however the template splits the path between them. The first
	// generated line must be found under that reading.
	info, err := in.Store.Resolve(in.Fact)
	if err != nil {
		return nil, err
	}
	n := len(info.Columns)
	if n < 5 {
		return nil, fmt.Errorf("fact table has %d columns, want at least 5", n)
	}
	ts, host, code, ms := 0, 1, n-3, n-2
	var first []string
	var lastFile []byte
	for _, f := range lk.Files {
		if f.Format != fmtRequests {
			continue
		}
		if first == nil {
			line, _, _ := strings.Cut(string(f.Data), "\n")
			first = strings.Fields(line)
		}
		lastFile = f.Data
	}
	probe := fmt.Sprintf("SELECT count(*) FROM %s WHERE f%d = %s AND f%d = '%s' AND f%d = %s AND f%d = %s",
		in.Fact, ts, first[0], host, first[1], code, first[len(first)-3], ms, first[len(first)-2])
	var found bytes.Buffer
	if err := writeQuery(cat, probe, &found, query.WriteCSV); err != nil {
		return nil, fmt.Errorf("fact table layout: %w", err)
	}
	if got := strings.TrimSpace(found.String()); !strings.HasSuffix(got, "\n1") {
		return nil, fmt.Errorf("fact table layout: first generated line not found by %q (%q)", probe, got)
	}

	// The scan predicate keeps the last scanRows rows of the monotone
	// column: it cuts at the timestamp of the row before them.
	lines := bytes.Split(bytes.TrimSuffix(lastFile, []byte("\n")), []byte("\n"))
	var cut int64
	fmt.Sscan(string(lines[len(lines)-min(scanRows, len(lines)/2)-1]), &cut)
	hosts := reg.FP[fmtHosts]
	texts := map[string]string{
		"scan":    fmt.Sprintf("SELECT f%d, f%d FROM %s WHERE f%d > %d", ts, ms, in.Fact, ts, cut),
		"wide":    fmt.Sprintf("SELECT * FROM %s", in.Fact),
		"join":    fmt.Sprintf("SELECT r.f%d, r.f%d, h.f3, h.f5 FROM %s AS r, %s AS h WHERE r.f%d = h.f1 AND r.f%d = 500", ts, ms, in.Fact, hosts, host, code),
		"topk":    fmt.Sprintf("SELECT f%d, f%d, f%d FROM %s ORDER BY f%d DESC, f%d LIMIT 10", ts, host, ms, in.Fact, ms, ts),
		"groupby": fmt.Sprintf("SELECT f%d, count(*) FROM %s GROUP BY f%d ORDER BY count(*) DESC, f%d LIMIT 5", host, in.Fact, host, host),
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	in.Scans = map[string]factScan{
		"full":    {Columns: all},
		"scan":    {Columns: []int{ts, ms}, Preds: []lake.ScanPred{{Col: ts, Op: ">", Lit: fmt.Sprint(cut), Numeric: true}}},
		"join":    {Columns: []int{ts, host, code, ms}, Preds: []lake.ScanPred{{Col: code, Op: "=", Lit: "500", Numeric: true}}},
		"topk":    {Columns: []int{ts, host, ms}},
		"groupby": {Columns: []int{host}},
	}
	for _, name := range queryShapes {
		s := shape{Name: name, Text: texts[name]}
		var err error
		if s.Rows, s.Sum, _, err = runQuery(query.NoPushdown(cat), s.Text, true); err != nil {
			return nil, fmt.Errorf("reference %s: %w", name, err)
		}
		if s.Rows == 0 {
			return nil, fmt.Errorf("reference %s returned no rows", name)
		}
		in.Shapes = append(in.Shapes, s)
	}
	var csv bytes.Buffer
	if err := writeQuery(cat, texts["scan"], &csv, query.WriteCSV); err != nil {
		return nil, err
	}
	in.ScanCSV = csv.Bytes()

	g := &lakeGen{rng: rand.New(rand.NewSource(seed ^ 0x6578)), ts: 1_900_000_000}
	body, _ := g.records(fmtRequests, 64<<10)
	in.ExtractBody = []byte(body)
	ext, err := datamaran.ExtractReaderWithProfile(bytes.NewReader(in.ExtractBody), reg.Profiles[fmtRequests], datamaran.Options{Workers: 2})
	if err != nil {
		return nil, err
	}
	var want bytes.Buffer
	for _, t := range ext.TablesWith(datamaran.TablesOptions{}) {
		fmt.Fprintf(&want, "# table %s\n", t.Name)
		if err := t.WriteCSV(&want); err != nil {
			return nil, err
		}
	}
	in.ExtractWant = want.Bytes()
	return in, nil
}

// timedQuery runs one shape in-process, rows drained, and counts it as
// an operation: the row count must be the reference's, and with sum the
// digest too.
func timedQuery(in *queryInput, s shape, sum bool, tr *tracer, parent int, o *outcome) (time.Duration, query.ExecStats) {
	sp := tr.start("query."+s.Name, parent)
	t0 := time.Now()
	n, digest, stats, err := runQuery(query.StoreCatalog(in.Store), s.Text, sum)
	wall := time.Since(t0)
	tr.end(sp)
	switch {
	case err != nil:
		o.op(false, "query %s: %v", s.Name, err)
	case n != s.Rows || sum && digest != s.Sum:
		o.op(false, "query %s: %d rows digest %x, reference without pushdown gave %d rows digest %x", s.Name, n, digest, s.Rows, s.Sum)
	default:
		o.op(true, "")
	}
	return wall, stats
}

// scanReps is how many times in a row a pass runs the scan shape. The
// shape takes a twentieth of the others' time, so run once per pass it
// is the one latency that is always measured on caches the previous
// shape (or the calibration kernel) has just emptied, and its median
// over a run moved by a quarter; back to back it is measured warm, as a
// daemon serving the same query repeatedly sees it.
const scanReps = 5

// shapesPass runs the five shapes (scan scanReps times, the others once)
// and returns their latencies in milliseconds.
func shapesPass(in *queryInput, sum bool, tr *tracer, o *outcome) map[string][]float64 {
	root := tr.start("query.pass", 0)
	defer tr.end(root)
	ms := map[string][]float64{}
	for _, s := range in.Shapes {
		reps := 1
		if s.Name == "scan" {
			reps = scanReps
		}
		for ; reps > 0; reps-- {
			wall, _ := timedQuery(in, s, sum, tr, root, o)
			ms[s.Name] = append(ms[s.Name], wall.Seconds()*1000)
		}
	}
	return ms
}

// shapesMeasure runs the five shapes in-process with one caller and
// reports each shape's median latency.
type shapesMeasure struct {
	in  *queryInput
	o   *outcome
	lat map[string][]float64
}

// newShapesMeasure warms up with one digest-checked pass.
func newShapesMeasure(in *queryInput, o *outcome) *shapesMeasure {
	shapesPass(in, true, nil, o)
	return &shapesMeasure{in: in, o: o, lat: map[string][]float64{}}
}

// pass is one shapesPass.
func (m *shapesMeasure) pass(timed bool) {
	for name, ms := range shapesPass(m.in, false, nil, m.o) {
		if timed {
			m.lat[name] = append(m.lat[name], ms...)
		}
	}
}

// report sets the metrics and returns the medians.
func (m *shapesMeasure) report() map[string]float64 {
	p50 := map[string]float64{}
	for name, ms := range m.lat {
		m.o.set(name+"_p50_ms", ms...)
		p50[name] = median(ms)
	}
	return p50
}

// daemon is an in-process serve daemon over the query lake behind a
// loopback listener.
type daemon struct {
	hs     *httptest.Server
	client *http.Client
}

func startDaemon(in *queryInput) (*daemon, error) {
	srv, err := serve.New(serve.Config{
		Root:           in.Lake.Root,
		RegistryPath:   in.State.registry(),
		CheckpointPath: in.State.checkpoints(),
		StorePath:      in.State.store(),
		Workers:        2,
	})
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(srv.Handler())
	return &daemon{hs: hs, client: hs.Client()}, nil
}

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.hs.Close()
}

// do issues one request and reads the whole body; the latency is the
// client's, send to last byte.
func (d *daemon) do(method, target string, body []byte) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(method, d.hs.URL+target, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	wall := time.Since(t0)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s %s: status %d: %.200s", method, target, resp.StatusCode, got)
	}
	return got, wall, err
}

func queryTarget(text string) string {
	return "/v1/query?output=csv&q=" + url.QueryEscape(text)
}

// httpMeasure drives the daemon with two closed-loop clients, each
// repeating four scan queries and one 64 KiB extract. Every response is
// an operation and must equal the bytes the in-process path produced.
// Latencies are in milliseconds.
type httpMeasure struct {
	in             *queryInput
	d              *daemon
	tr             *tracer
	o              *outcome
	mu             sync.Mutex
	discard        bool // a warm-up pass: requests are checked, latencies dropped
	query, extract []float64
	wall           time.Duration
}

func (m *httpMeasure) request(kind, method, target string, body, want []byte, parent int) {
	sp := m.tr.start("http."+kind, parent)
	got, wall, err := m.d.do(method, target, body)
	m.tr.end(sp)
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case err != nil:
		m.o.op(false, "http %s: %v", kind, err)
	case !bytes.Equal(got, want):
		m.o.op(false, "http %s: %d-byte body differs from the %d bytes produced in-process", kind, len(got), len(want))
	default:
		m.o.op(true, "")
	}
	switch {
	case m.discard:
	case kind == "query":
		m.query = append(m.query, wall.Seconds()*1000)
	default:
		m.extract = append(m.extract, wall.Seconds()*1000)
	}
}

// httpSlice is how long one pass of HTTP load lasts.
const httpSlice = 300 * time.Millisecond

// pass is one slice of load: both clients, at least two rounds each.
func (m *httpMeasure) pass(timed bool) {
	m.discard = !timed
	scanTarget := queryTarget(m.in.shape("scan").Text)
	extractTarget := "/v1/extract?output=csv&format=" + m.in.ExtractFP
	root := m.tr.start("http.load", 0)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 2 || time.Since(start) < httpSlice; round++ {
				for i := 0; i < 4; i++ {
					m.request("query", "GET", scanTarget, nil, m.in.ScanCSV, root)
				}
				m.request("extract", "POST", extractTarget, m.in.ExtractBody, m.in.ExtractWant, root)
			}
		}()
	}
	wg.Wait()
	if timed {
		m.wall += time.Since(start)
	}
	m.tr.end(root)
}

func (m *httpMeasure) report() {
	m.o.set("http_query_p50_ms", m.query...)
	m.o.set("http_extract_p50_ms", m.extract...)
}

// medianMS times fn reps times and returns the median in milliseconds.
func medianMS(reps int, fn func() error) (float64, error) {
	var ms []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms = append(ms, time.Since(t0).Seconds()*1000)
	}
	return median(ms), nil
}

// drainScan runs one stand-alone fact-table scan to the end.
func drainScan(in *queryInput, fs factScan, tr *tracer) (decoded, pruned int, err error) {
	sp := tr.start("lake.SegmentStore.ScanWith", 0)
	defer tr.end(sp)
	sc, err := in.Store.ScanWith(in.Fact, lake.ScanOptions{Columns: fs.Columns, Preds: fs.Preds})
	if err != nil {
		return 0, 0, err
	}
	defer sc.Close()
	for {
		if _, err := sc.Next(); err != nil {
			if err != io.EOF {
				return 0, 0, err
			}
			decoded, pruned, _ = sc.BlockStats()
			return decoded, pruned, nil
		}
	}
}

// traceQuery runs the traced shapes pass and HTTP load, then the layers
// under the read side on their own. p50 and load are the untraced
// measurements. It returns the traced shapes pass time in seconds.
func traceQuery(in *queryInput, d *daemon, p50 map[string]float64, load *httpMeasure, tr *tracer, o *outcome) (float64, error) {
	const reps = 5
	wall := 0.0
	for _, ms := range shapesPass(in, false, tr, o) {
		wall += median(ms) / 1000
	}
	(&httpMeasure{in: in, d: d, tr: tr, o: o}).pass(true)

	openMS, err := medianMS(reps, func() error {
		sp := tr.start("lake.OpenSegmentStore", 0)
		defer tr.end(sp)
		_, err := lake.OpenSegmentStore(in.State.store())
		return err
	})
	if err != nil {
		return 0, err
	}
	o.set("lake.open_ms", openMS)

	scanMS := map[string]float64{}
	var decoded, pruned int
	for name, fs := range in.Scans {
		scanMS[name], err = medianMS(reps, func() (err error) {
			dec, pr, err := drainScan(in, fs, tr)
			if name == "scan" {
				decoded, pruned = dec, pr
			}
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	o.set("lake.scan_full_ms", scanMS["full"])
	o.set("lake.scan_cols1_ms", scanMS["groupby"])
	o.set("lake.scan_pred_ms", scanMS["scan"])
	o.set("lake.blocks_decoded", float64(decoded))
	o.set("lake.blocks_pruned", float64(pruned))
	o.set("lake.pruned_share", float64(pruned)/float64(max(decoded+pruned, 1)))
	for _, name := range []string{"join", "topk", "groupby"} {
		o.set("query."+name+"_self_ms", p50[name]-scanMS[name])
	}

	var parseUS []float64
	for i := 0; i < 200; i++ {
		for _, s := range in.Shapes {
			t0 := time.Now()
			if _, err := query.Parse(s.Text); err != nil {
				return 0, err
			}
			parseUS = append(parseUS, float64(time.Since(t0).Nanoseconds())/1000)
		}
	}
	o.set("query.parse_us", parseUS...)
	for _, s := range in.Shapes {
		_, stats := timedQuery(in, s, false, nil, 0, o)
		o.set("query."+s.Name+".rows_scanned", float64(stats.RowsScanned))
		o.set("query."+s.Name+".blocks_decoded", float64(stats.BlocksDecoded))
		o.set("query."+s.Name+".blocks_pruned", float64(stats.BlocksPruned))
	}

	cat := query.StoreCatalog(in.Store)
	for name, write := range map[string]func(io.Writer, *query.Rows, func()) error{
		"csv": query.WriteCSV, "ndjson": query.WriteNDJSON,
	} {
		ms, err := medianMS(reps, func() error {
			sp := tr.start("query.Write."+name, 0)
			defer tr.end(sp)
			return writeQuery(cat, in.shape("wide").Text, io.Discard, write)
		})
		if err != nil {
			return 0, err
		}
		o.set("query."+name+"_ms", ms-p50["wide"])
	}

	scanCSV, err := medianMS(4*reps, func() error {
		return writeQuery(cat, in.shape("scan").Text, io.Discard, query.WriteCSV)
	})
	if err != nil {
		return 0, err
	}
	o.set("serve.http_overhead_ms", median(load.query)-scanCSV)
	wideTarget := queryTarget(in.shape("wide").Text)
	wideMS, err := medianMS(reps, func() error {
		sp := tr.start("http.wide", 0)
		defer tr.end(sp)
		_, _, err := d.do("GET", wideTarget, nil)
		return err
	})
	if err != nil {
		return 0, err
	}
	o.set("serve.http_wide_p50_ms", wideMS)
	o.set("serve.query_p95_ms", percentile(load.query, 0.95))
	o.set("serve.query_samples", float64(len(load.query)))
	o.set("serve.extract_p95_ms", percentile(load.extract, 0.95))
	o.set("serve.extract_samples", float64(len(load.extract)))
	o.set("serve.qps", float64(len(load.query)+len(load.extract))/load.wall.Seconds())

	raw, _, err := d.do("GET", "/v1/status", nil)
	if err != nil {
		return 0, err
	}
	var status struct {
		Shed   float64 `json:"shed"`
		Hits   float64 `json:"profileCacheHits"`
		Misses float64 `json:"profileCacheMisses"`
	}
	if err := json.Unmarshal(raw, &status); err != nil {
		return 0, err
	}
	o.set("serve.shed", status.Shed)
	o.set("serve.profile_cache_hit_share", status.Hits/max(status.Hits+status.Misses, 1))
	return wall, nil
}
