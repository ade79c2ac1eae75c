package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"datamaran"
	"datamaran/internal/follow"
	"datamaran/internal/lake"
	"datamaran/internal/obsv"
	"datamaran/internal/pipeline"
)

// registryInfo is the registry set-up learns from one small file per
// format, and which fingerprint each generated format got.
type registryInfo struct {
	Path     string
	FP       map[string]string // format name -> fingerprint
	Profiles map[string]*datamaran.Profile
}

// learnRegistry discovers the four structured formats on the seed files,
// so the timed crawls meet only known formats.
func learnRegistry(dir string, seed int64) (*registryInfo, error) {
	root := filepath.Join(dir, "seedlake")
	if err := writeLake(root, seedFiles(seed)); err != nil {
		return nil, err
	}
	reg := &registryInfo{Path: filepath.Join(dir, "registry.json"), FP: map[string]string{}, Profiles: map[string]*datamaran.Profile{}}
	res, err := datamaran.IndexDir(root, datamaran.IndexOptions{RegistryPath: reg.Path, Workers: 2})
	if err != nil {
		return nil, fmt.Errorf("learn registry: %w", err)
	}
	seen := map[string]string{}
	for _, f := range res.Files {
		format, _, _ := strings.Cut(f.Path, "/")
		if f.Err != nil || f.Fingerprint == "" {
			return nil, fmt.Errorf("learn registry: %s found no structure (err %v)", f.Path, f.Err)
		}
		if other, dup := seen[f.Fingerprint]; dup {
			return nil, fmt.Errorf("learn registry: %s and %s share fingerprint %s", other, format, f.Fingerprint)
		}
		seen[f.Fingerprint] = format
		reg.FP[format] = f.Fingerprint
	}
	for i := range res.Formats {
		reg.Profiles[seen[res.Formats[i].Fingerprint]] = res.Formats[i].Profile()
	}
	return reg, nil
}

// lakeInput is a generated lake on disk.
type lakeInput struct {
	Root  string
	Files []lakeFile
	Bytes int64
	Mut   mutation
}

func setupLake(root string, seed int64, spec lakeSpec) (*lakeInput, error) {
	files := genLake(seed, spec)
	if err := writeLake(root, files); err != nil {
		return nil, err
	}
	return &lakeInput{Root: root, Files: files, Bytes: lakeBytes(files), Mut: planMutation(seed, files)}, nil
}

// rows returns the generated row count per format.
func (in *lakeInput) rows() map[string]int {
	rows := map[string]int{}
	for _, f := range in.Files {
		rows[f.Format] += f.Rows
	}
	return rows
}

// crawlState is the on-disk state one sequence of crawls shares: a copy
// of the learned registry, the checkpoints and the record store.
type crawlState struct{ Dir string }

func newCrawlState(dir string, reg *registryInfo) (crawlState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return crawlState{}, err
	}
	raw, err := os.ReadFile(reg.Path)
	if err != nil {
		return crawlState{}, err
	}
	return crawlState{dir}, os.WriteFile(filepath.Join(dir, "registry.json"), raw, 0o644)
}

func (s crawlState) registry() string    { return filepath.Join(s.Dir, "registry.json") }
func (s crawlState) checkpoints() string { return filepath.Join(s.Dir, "checkpoints.json") }
func (s crawlState) store() string       { return filepath.Join(s.Dir, "store") }

// crawl is one datamaran.IndexDir over root with the fixed load shape.
func (s crawlState) crawl(root string) (*datamaran.IndexResult, time.Duration, error) {
	t0 := time.Now()
	res, err := datamaran.IndexDir(root, datamaran.IndexOptions{
		RegistryPath: s.registry(), CheckpointPath: s.checkpoints(), StorePath: s.store(), Workers: 2,
	})
	return res, time.Since(t0), err
}

// storeRows returns the store's row count per format.
func storeRows(st *lake.SegmentStore, reg *registryInfo) map[string]int {
	rows := map[string]int{}
	for format, fp := range reg.FP {
		for _, t := range st.Tables() {
			if t.Fingerprint == fp {
				rows[format] += t.Rows
			}
		}
	}
	return rows
}

// tableSum is an order-insensitive digest of one table.
type tableSum struct {
	Rows int
	Sum  uint64
}

// rowHash folds one row's cells.
func rowHash(row []string) uint64 {
	h := uint64(fnvOffset)
	for _, c := range row {
		h = fnvString(h, c)
	}
	return h
}

// storeSums digests every table of the store at path.
func storeSums(path string) (map[string]tableSum, error) {
	st, err := lake.OpenSegmentStore(path)
	if err != nil {
		return nil, err
	}
	sums := map[string]tableSum{}
	for _, t := range st.Tables() {
		sc, err := st.Scan(t.Name)
		if err != nil {
			return nil, err
		}
		var s tableSum
		for {
			row, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				sc.Close()
				return nil, err
			}
			s.Rows++
			s.Sum += rowHash(row)
		}
		sc.Close()
		sums[t.Name] = s
	}
	return sums, nil
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		n += info.Size()
		return err
	})
	return n, err
}

// checkCrawl returns what is wrong with a finished crawl, or "".
func checkCrawl(res *datamaran.IndexResult, st crawlState, reg *registryInfo, wantRows map[string]int, wantResumed, wantUnchanged int) string {
	s := res.Summary
	if s.Failed != 0 || s.FormatsKnown != len(reg.FP) || s.FormatsDiscovered != 0 {
		return fmt.Sprintf("summary %+v: want 0 failed, %d formats known, none discovered", s, len(reg.FP))
	}
	if s.Resumed != wantResumed || s.Unchanged != wantUnchanged {
		return fmt.Sprintf("%d resumed and %d unchanged, want %d and %d", s.Resumed, s.Unchanged, wantResumed, wantUnchanged)
	}
	for _, f := range res.Files {
		if notes := strings.HasPrefix(f.Path, fmtNotes+"/"); notes != f.Unstructured {
			return fmt.Sprintf("%s: unstructured=%v", f.Path, f.Unstructured)
		}
	}
	store, err := lake.OpenSegmentStore(st.store())
	if err != nil {
		return err.Error()
	}
	got := storeRows(store, reg)
	for format := range reg.FP {
		if got[format] != wantRows[format] {
			return fmt.Sprintf("table of %s holds %d rows, generator wrote %d", format, got[format], wantRows[format])
		}
	}
	return ""
}

// ingested is one ingest pass: a full crawl into fresh state, then the
// incremental crawl of the mutated lake.
type ingested struct {
	Full, Recrawl time.Duration
	StoreBytes    int64
}

// ingestPass crawls the lake into fresh state, mutates it, crawls again
// and puts the lake back. With oneShot it also checks that the store
// the two crawls built equals the store of one crawl over the mutated
// lake. Each crawl is one operation. between, when set, runs before each
// crawl, outside the timed calls.
func ingestPass(dir string, in *lakeInput, reg *registryInfo, oneShot bool, between func(), o *outcome) (out ingested, err error) {
	defer os.RemoveAll(dir)
	st, err := newCrawlState(filepath.Join(dir, "state"), reg)
	if err != nil {
		return out, err
	}
	if between == nil {
		between = func() {}
	}
	between()
	res, wall, err := st.crawl(in.Root)
	if err != nil {
		o.op(false, "full crawl: %v", err)
		return out, err
	}
	out.Full = wall
	problem := checkCrawl(res, st, reg, in.rows(), 0, 0)
	o.op(problem == "", "full crawl: %s", problem)
	if out.StoreBytes, err = dirBytes(st.store()); err != nil {
		return out, err
	}

	if err := in.Mut.apply(in.Root, in.Files); err != nil {
		return out, err
	}
	defer func() {
		if rerr := in.Mut.revert(in.Root, in.Files); err == nil {
			err = rerr
		}
	}()
	between()
	res, wall, err = st.crawl(in.Root)
	if err != nil {
		o.op(false, "incremental crawl: %v", err)
		return out, err
	}
	out.Recrawl = wall
	resumed := len(in.Mut.Grow)
	unchanged := res.Summary.Files - resumed - len(in.Mut.Add)
	problem = checkCrawl(res, st, reg, in.Mut.rowsAfter(in.Files), resumed, unchanged)
	o.op(problem == "", "incremental crawl: %s", problem)

	if oneShot {
		fresh, err := newCrawlState(filepath.Join(dir, "oneshot"), reg)
		if err != nil {
			return out, err
		}
		if _, _, err := fresh.crawl(in.Root); err != nil {
			o.op(false, "one-shot crawl: %v", err)
			return out, err
		}
		got, err := storeSums(st.store())
		if err != nil {
			return out, err
		}
		want, err := storeSums(fresh.store())
		if err != nil {
			return out, err
		}
		same := len(got) == len(want)
		for name, w := range want {
			same = same && got[name] == w
		}
		o.op(same, "store after the incremental crawl %v differs from a one-shot crawl of the mutated lake %v", got, want)
	}
	return out, nil
}

// ingestMeasure takes ingest passes and reports ingest_mib_per_s,
// recrawl_s and store_bytes_per_input_byte.
type ingestMeasure struct {
	dir    string
	in     *lakeInput
	reg    *registryInfo
	o      *outcome
	clock  *kernelClock
	passes []ingested
	// checked is set once a pass has compared the incremental store with
	// a one-shot crawl.
	checked bool
	err     error // the first pass that could not run; later passes do nothing
}

func (m *ingestMeasure) pass(timed bool) {
	if m.err != nil {
		return
	}
	// The one-shot comparison costs a third crawl; the first pass pays
	// it, outside both timed crawls.
	got, err := ingestPass(filepath.Join(m.dir, "ingest"), m.in, m.reg, !m.checked, m.clock.tick, m.o)
	m.checked = true
	if err != nil {
		m.err = err
		return
	}
	if timed {
		m.passes = append(m.passes, got)
	}
}

// report sets the metrics and returns the median wall time of one
// pass's two crawls.
func (m *ingestMeasure) report() (float64, error) {
	if m.err != nil {
		return 0, m.err
	}
	mib := float64(m.in.Bytes) / (1 << 20)
	var rates, recrawls, walls, ratios []float64
	for _, p := range m.passes {
		rates = append(rates, mib/p.Full.Seconds())
		recrawls = append(recrawls, p.Recrawl.Seconds())
		walls = append(walls, (p.Full + p.Recrawl).Seconds())
		ratios = append(ratios, float64(p.StoreBytes)/float64(m.in.Bytes))
	}
	m.o.set("ingest_mib_per_s", rates...)
	m.o.set("recrawl_s", recrawls...)
	m.o.set("store_bytes_per_input_byte", ratios...)
	return median(walls), nil
}

// tracedCrawl is datamaran.IndexDir taken apart: the same calls in the
// same order, each wrapped in a span, with the crawl's own stage
// histograms read from a private registry. prefix names the spans
// ("crawl" or "recrawl").
func tracedCrawl(root string, st crawlState, prefix string, tr *tracer) (lake.Summary, map[string]float64, error) {
	top := tr.start(prefix, 0)
	defer tr.end(top)
	// step runs fn under a span unless an earlier step failed.
	var err error
	step := func(name string, fn func() error) {
		if err != nil {
			return
		}
		sp := tr.start(prefix+"."+name, top)
		err = fn()
		tr.end(sp)
	}
	var reg *lake.Registry
	var cps *follow.Store
	var store *lake.SegmentStore
	var txn *lake.StoreTxn
	var res *lake.Result
	metrics := obsv.NewRegistry()
	step("lake.LoadRegistry", func() (e error) { reg, e = lake.LoadRegistry(st.registry()); return })
	step("follow.LoadStore", func() (e error) { cps, e = follow.LoadStore(st.checkpoints()); return })
	step("lake.OpenSegmentStore", func() (e error) { store, e = lake.OpenSegmentStore(st.store()); return })
	step("lake.IndexContext", func() (e error) {
		txn = store.Begin()
		res, e = lake.IndexContext(context.Background(), root, reg, lake.Config{
			Workers: 2, Checkpoints: cps, Segments: txn, Metrics: metrics,
		})
		if e != nil {
			txn.Abort()
		}
		return
	})
	step("StoreTxn.Commit", func() error { return txn.Commit() })
	step("SegmentStore.Compact", func() error { _, e := store.Compact(lake.DefaultCompactFiles); return e })
	step("Registry.Save", func() error { return reg.Save(st.registry()) })
	step("follow.Store.Save", func() error { return cps.Save(st.checkpoints()) })
	if err != nil {
		return lake.Summary{}, nil, err
	}
	stages := map[string]float64{}
	for _, m := range metrics.Snapshot() {
		if m.Name == "datamaran_crawl_stage_seconds" && m.Hist != nil {
			stage := strings.TrimSuffix(strings.TrimPrefix(m.Labels, `{stage="`), `"}`)
			stages[stage] = m.Hist.Sum
		}
	}
	return res.Summary, stages, nil
}

// traceIngest runs the traced full and incremental crawl, then segment
// encoding on its own. It returns the wall time of the two traced
// crawls.
func traceIngest(dir string, in *lakeInput, reg *registryInfo, tr *tracer, o *outcome) (wall float64, err error) {
	dir = filepath.Join(dir, "ingest-traced")
	defer os.RemoveAll(dir)
	st, err := newCrawlState(filepath.Join(dir, "state"), reg)
	if err != nil {
		return 0, err
	}
	full, stages, err := tracedCrawl(in.Root, st, "crawl", tr)
	o.op(err == nil && full.Failed == 0, "traced full crawl: %+v %v", full, err)
	if err != nil {
		return 0, err
	}
	o.set("lake.walk_s", stages["walk"])
	o.set("lake.classify_s", stages["classify"])
	o.set("lake.extract_s", stages["extract"])
	o.set("lake.commit_s", tr.seconds("crawl.StoreTxn.Commit"))
	o.set("lake.compact_s", tr.seconds("crawl.SegmentStore.Compact"))
	o.set("lake.registry_save_s", tr.seconds("crawl.Registry.Save"))
	o.set("follow.save_s", tr.seconds("crawl.follow.Store.Save"))
	o.set("lake.files", float64(full.Files))
	o.set("lake.cache_hits", float64(full.CacheHits))
	store, err := lake.OpenSegmentStore(st.store())
	if err != nil {
		return 0, err
	}
	rows, segments := 0, 0
	for _, t := range store.Tables() {
		rows += t.Rows
		segments += t.Segments
	}
	storeBytes, err := dirBytes(st.store())
	if err != nil {
		return 0, err
	}
	o.set("lake.rows", float64(rows))
	o.set("lake.segments", float64(segments))
	o.set("lake.store_bytes", float64(storeBytes))

	if err := in.Mut.apply(in.Root, in.Files); err != nil {
		return 0, err
	}
	defer func() {
		if rerr := in.Mut.revert(in.Root, in.Files); err == nil {
			err = rerr
		}
	}()
	inc, stages, err := tracedCrawl(in.Root, st, "recrawl", tr)
	o.op(err == nil && inc.Failed == 0, "traced incremental crawl: %+v %v", inc, err)
	if err != nil {
		return 0, err
	}
	o.set("follow.resumed", float64(inc.Resumed))
	o.set("follow.unchanged", float64(inc.Unchanged))
	o.set("follow.full", float64(inc.Files-inc.Resumed-inc.Unchanged))
	o.set("lake.recrawl_extract_s", stages["extract"])
	o.set("lake.recrawl_commit_s", tr.seconds("recrawl.StoreTxn.Commit"))
	o.set("lake.recrawl_compact_s", tr.seconds("recrawl.SegmentStore.Compact"))
	wall = tr.seconds("crawl") + tr.seconds("recrawl")

	// Encoding alone: the records of one file per format, extracted
	// beforehand, written through StoreTxn.Rewrite into a scratch store.
	scratch, err := lake.OpenSegmentStore(filepath.Join(dir, "encode"))
	if err != nil {
		return 0, err
	}
	registry, err := lake.LoadRegistry(reg.Path)
	if err != nil {
		return 0, err
	}
	txn := scratch.Begin()
	defer txn.Abort()
	var encoded int64
	for _, format := range []string{fmtRequests, fmtJobs, fmtMetrics, fmtHosts} {
		entry := registry.Lookup(reg.FP[format])
		for _, f := range in.Files {
			if f.Format != format {
				continue
			}
			res, err := pipeline.Run(bytes.NewReader(f.Data), pipeline.Config{Templates: entry.Templates, Workers: 1})
			if err != nil {
				return 0, err
			}
			sp := tr.start("StoreTxn.Rewrite", 0)
			err = txn.Rewrite(f.Rel, entry.Fingerprint, entry.Templates, res.Records, 0)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			encoded += int64(len(f.Data))
			break
		}
	}
	o.set("lake.encode_s", tr.seconds("StoreTxn.Rewrite"))
	o.set("lake.encode_mib_per_s", float64(encoded)/(1<<20)/tr.seconds("StoreTxn.Rewrite"))
	return wall, nil
}
