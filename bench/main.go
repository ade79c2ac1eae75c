// Command bench is the repository's one benchmark: it generates its
// inputs from -seed, drives discovery, profile extraction, the lake
// crawl, the query engine and the serve daemon through their public
// entry points, checks every output it timed, and prints every metric
// by name with its unit. README.md in this directory explains the
// workloads, the metrics and how to read a comparison.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"datamaran/internal/datagen"
)

// workloads in report order. Every workload runs all four phases, so
// every metric exists on every workload; the workload's own phase gets
// the large input and most of -seconds, the others their small input
// and a short slice.
var workloads = []string{"discover_cold", "apply_stream", "lake_ingest", "lake_query"}

// sizes is what one workload gives each phase.
type sizes struct {
	AllDatasets bool    // discovery on all 25 Table-5 analogs, or the cheap subset
	Scale       float64 // dataset scale
	StreamBytes int64
	IngestLake  lakeSpec
	QueryLake   lakeSpec
	// Share of -seconds each measurement gets: discover, apply, ingest,
	// in-process shapes, HTTP. Each measurement also has a minimum number
	// of passes, which a short share does not cut.
	Share [5]float64
}

var (
	smallLake = lakeSpec{Bytes: 2 << 20, Files: 24}
	largeLake = lakeSpec{Bytes: 8 << 20, Files: 90}
)

// plan sizes the phases for a workload. quick quarters every input.
func plan(workload string, quick bool) (sizes, error) {
	sz := sizes{Scale: 0.5, StreamBytes: 8 << 20, IngestLake: smallLake, QueryLake: smallLake}
	switch workload {
	case "discover_cold":
		sz.AllDatasets = true
		sz.Share = [5]float64{0.42, 0.14, 0.18, 0.12, 0.14}
	case "apply_stream":
		sz.StreamBytes = 48 << 20
		sz.Share = [5]float64{0.14, 0.38, 0.24, 0.12, 0.12}
	case "lake_ingest":
		sz.IngestLake = largeLake
		sz.Share = [5]float64{0.14, 0.14, 0.44, 0.14, 0.14}
	case "lake_query":
		sz.QueryLake = largeLake
		sz.Share = [5]float64{0.13, 0.13, 0.24, 0.25, 0.25}
	default:
		return sizes{}, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloads, ", "))
	}
	if quick {
		sz.Scale /= 4
		sz.StreamBytes /= 4
		sz.IngestLake.Bytes /= 4
		sz.QueryLake.Bytes /= 4
	}
	return sz, nil
}

// inputs is everything set-up builds.
type inputs struct {
	Sets   []*datagen.Dataset
	Stream *streamInput
	Reg    *registryInfo
	Ingest *lakeInput
	Query  *queryInput
}

// setup generates every input under dir and does all the untimed work:
// profile and registry learning, and the read side's ingest.
func setup(dir string, seed int64, sz sizes) (*inputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &inputs{Sets: genDatasets(seed, sz.Scale, !sz.AllDatasets)}
	var err error
	if in.Stream, err = setupStream(dir, seed, sz.StreamBytes); err != nil {
		return nil, err
	}
	if in.Reg, err = learnRegistry(dir, seed); err != nil {
		return nil, err
	}
	if in.Ingest, err = setupLake(filepath.Join(dir, "lake"), seed, sz.IngestLake); err != nil {
		return nil, err
	}
	in.Query, err = setupQuery(dir, seed, sz.QueryLake, in.Reg)
	return in, err
}

// rounds is how many blocks each measurement's share of a run is cut
// into (schedule in stats.go).
const rounds = 2

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// defaultSeconds is how long one workload measures for; BENCHMARK.json
// repeats it as run_seconds.
const defaultSeconds = 26

// outDir holds the scratch data, the default report and trace.ndjson. It
// is relative to the root of the checkout, where run.sh starts the
// program.
const outDir = "bench/out"

// config is one invocation's flags.
type config struct {
	Seed    int64
	Seconds float64
	Quick   bool
	// Tracer is non-nil for a traced invocation; it collects the spans
	// of every workload run.
	Tracer *tracer
}

// runReport is one workload run in the report file.
type runReport struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Quick    bool    `json:"quick"`
	Trace    bool    `json:"trace"`
	NProc    int     `json:"nproc"`
	MaxProcs int     `json:"gomaxprocs"`
	Go       string  `json:"go"`
	Flush    string  `json:"flush_policy"`
	// KernelMS is the calibration kernel's median time between the passes
	// of each measurement (and after each set-up); that measurement's
	// end-to-end timings are restated from it to calibrationRefMS.
	KernelMS map[string]float64 `json:"calibration_kernel_ms"`
	RefMS    float64            `json:"calibration_ref_ms"`
	Inputs   map[string]int64   `json:"inputs"`
	// Tail is, for each HTTP latency, the highest percentile its sample
	// supports (ten samples beyond it) and that percentile's value.
	Tail map[string][2]float64 `json:"http_tail"`
	outcome
}

// flushPolicy is what the store's write path does today; the ingest
// numbers mean nothing without it.
const flushPolicy = "temp file + rename, no fsync"

// procCounters reads the runtime's cumulative allocation and CPU
// counters.
func procCounters() (allocBytes, gcCPU, busyCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64() - s[3].Value.Float64()
}

// peakRSSMiB reads the process's high-water resident set from /proc.
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscan(rest, &kb)
			return kb / 1024
		}
	}
	return 0
}

// runWorkload sets up, measures every phase untraced and, with a
// tracer, repeats each timed section under spans and takes the
// per-layer numbers.
func runWorkload(workload string, cfg config) (*runReport, error) {
	sz, err := plan(workload, cfg.Quick)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(outDir, fmt.Sprintf("work-%d", os.Getpid()))
	defer os.RemoveAll(work)

	o := newOutcome()
	// A traced run sets up once: it reports layers, not setup_s.
	repeats := setupRepeats
	if cfg.Tracer != nil || cfg.Quick {
		repeats = 1
	}
	var in *inputs
	var setups, setupKernel []float64
	for i := 0; i < repeats; i++ {
		dir := filepath.Join(work, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		if in, err = setup(dir, cfg.Seed, sz); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		for k := 0; k < 4; k++ {
			setupKernel = append(setupKernel, calibrationKernel())
		}
		if i < repeats-1 {
			os.RemoveAll(dir)
		}
	}
	o.set("setup_s", setups...)
	dir := filepath.Join(work, fmt.Sprintf("setup-%d", repeats-1))
	clocks := map[string]*kernelClock{"setup": {ms: setupKernel}}
	for _, phase := range []string{"discover", "apply", "ingest", "shapes", "http"} {
		clocks[phase] = &kernelClock{}
	}
	discover := &discoverMeasure{sets: in.Sets, o: o, clock: clocks["discover"]}
	apply := newApplyMeasure(in.Stream, o)
	ingest := &ingestMeasure{dir: dir, in: in.Ingest, reg: in.Reg, o: o, clock: clocks["ingest"]}
	shapes := newShapesMeasure(in.Query, o)
	d, err := startDaemon(in.Query)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer d.close()
	load := &httpMeasure{in: in.Query, d: d, o: o}
	// A pass of milliseconds is warmed up at the start of each block; a
	// pass of a second or more warms itself, and discovery is cold by
	// definition.
	schedule(time.Duration(cfg.Seconds*float64(time.Second)), rounds, []*measure{
		{share: sz.Share[1], least: 2, warm: in.Stream.Truth.Bytes < 16<<20, pass: apply.pass, clock: clocks["apply"]},
		{share: sz.Share[3], least: 4, warm: true, pass: shapes.pass, clock: clocks["shapes"]},
		{share: sz.Share[0], least: 1, pass: discover.pass, clock: clocks["discover"]},
		{share: sz.Share[2], least: 2, pass: ingest.pass, clock: clocks["ingest"]},
		{share: sz.Share[4], least: 4, warm: true, pass: load.pass, clock: clocks["http"]},
	})
	discoverWall := discover.report()
	applyWall := apply.report()
	ingestWall, err := ingest.report()
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	p50 := shapes.report()
	load.report()
	var kernelMS []float64
	kernelTimes := map[string]float64{}
	for phase, names := range map[string][]string{
		"setup":    {"setup_s"},
		"discover": {"discover_s"},
		"apply":    {"extract_mib_per_s"},
		"ingest":   {"ingest_mib_per_s", "recrawl_s"},
		"shapes":   {"scan_p50_ms", "wide_p50_ms", "join_p50_ms", "topk_p50_ms", "groupby_p50_ms"},
		"http":     {"http_query_p50_ms", "http_extract_p50_ms"},
	} {
		kernelTimes[phase] = clocks[phase].speed()
		o.calibrate(kernelTimes[phase], names...)
		kernelMS = append(kernelMS, clocks[phase].ms...)
	}

	rep := &runReport{
		Workload: workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Quick: cfg.Quick, Trace: cfg.Tracer != nil,
		NProc: runtime.NumCPU(), MaxProcs: runtime.GOMAXPROCS(0), Go: runtime.Version(), Flush: flushPolicy,
		KernelMS: kernelTimes, RefMS: calibrationRefMS,
		Inputs: map[string]int64{
			"datasets":          int64(len(in.Sets)),
			"stream_bytes":      in.Stream.Truth.Bytes,
			"ingest_lake_bytes": in.Ingest.Bytes,
			"ingest_lake_files": int64(len(in.Ingest.Files)),
			"recrawl_appended":  in.Ingest.Mut.Appended,
			"query_lake_bytes":  in.Query.Lake.Bytes,
			"fact_rows":         int64(in.Query.Lake.rows()[fmtRequests]),
		},
		Tail: map[string][2]float64{},
	}
	for name, ms := range map[string][]float64{"http_query": load.query, "http_extract": load.extract} {
		p, v := tailPercentile(ms)
		rep.Tail[name] = [2]float64{p, v}
	}
	tr := cfg.Tracer
	if tr == nil {
		rep.outcome = *o
		return rep, nil
	}
	tr.workload = workload
	alloc0, gc0, busy0 := procCounters()
	tracedDiscover := traceDiscover(in.Sets, tr, o)
	tracedApply, err := traceApply(in.Stream, apply.ref, applyWall, tr, o)
	if err != nil {
		return nil, fmt.Errorf("trace apply: %w", err)
	}
	tracedIngest, err := traceIngest(dir, in.Ingest, in.Reg, tr, o)
	if err != nil {
		return nil, fmt.Errorf("trace ingest: %w", err)
	}
	tracedShapes, err := traceQuery(in.Query, d, p50, load, tr, o)
	if err != nil {
		return nil, fmt.Errorf("trace query: %w", err)
	}
	alloc1, gc1, busy1 := procCounters()
	o.set("proc.alloc_mib", (alloc1-alloc0)/(1<<20))
	o.set("proc.gc_cpu_share", (gc1-gc0)/(busy1-busy0))
	o.set("proc.peak_rss_mib", peakRSSMiB())
	o.set("proc.calibration_ms", kernelMS...)
	untraced := discoverWall + applyWall + ingestWall
	for _, ms := range p50 {
		untraced += ms / 1000
	}
	o.set("trace.overhead_share", (tracedDiscover+tracedApply+tracedIngest+tracedShapes-untraced)/untraced)
	rep.outcome = *o
	return rep, nil
}

// printRun writes the human-readable metric lines and then the one-line
// JSON result: every end-to-end metric, or with trace every per-layer
// metric. It reports whether the run is correct.
func printRun(w io.Writer, rep *runReport) bool {
	tables := [][]metricDef{endToEnd}
	if rep.Trace {
		tables = append(tables, perLayer)
	}
	for _, table := range tables {
		for _, d := range table {
			if s, ok := rep.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "%-14s %-34s %14.6g %-6s (q1 %.6g, q3 %.6g, n %d, raw %.6g)\n", rep.Workload, d.Name, s.Value, s.Unit, s.Q1, s.Q3, s.N, s.Raw)
			}
		}
	}
	for _, phase := range []string{"setup", "discover", "apply", "ingest", "shapes", "http"} {
		if ms, ok := rep.KernelMS[phase]; ok {
			fmt.Fprintf(w, "%-14s %-34s %14.6g %-6s (restated to %g)\n", rep.Workload, "calibration_kernel."+phase, ms, "ms", rep.RefMS)
		}
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "%-14s FAILED %s\n", rep.Workload, f)
	}
	table := tables[len(tables)-1]
	missing := rep.missing(table)
	for _, name := range missing {
		fmt.Fprintf(w, "%-14s MISSING %s\n", rep.Workload, name)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0 && len(missing) == 0, rep.Attempted, rep.Failed, map[string]value{}}
	for _, d := range table {
		if s, ok := rep.Metrics[d.Name]; ok {
			line.Metrics[d.Name] = value{s.Value, s.Unit}
		}
	}
	raw, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", raw)
	return line.Correct
}

// reportFile is the -out file: a set of runs. A run is appended when the
// file already holds runs, so ten invocations make the set -compare
// wants; delete the file to start a new set.
type reportFile struct {
	// Claim is the performance claim the runs support. This benchmark
	// defines the baseline and claims nothing.
	Claim *string     `json:"claim"`
	Runs  []runReport `json:"runs"`
}

func loadReport(path string) (reportFile, error) {
	var rf reportFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(raw, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

func appendReport(path string, runs []runReport) error {
	rf, err := loadReport(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rf.Runs = append(rf.Runs, runs...)
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// run is main without the exit: it returns the process's exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&cfg.Seconds, "seconds", defaultSeconds, "how long one workload measures for")
	// -trace takes a value because the driver passes "--trace 0".
	trace := fs.Int("trace", 0, "1 adds the traced pass and the per-layer metrics")
	fs.BoolVar(&cfg.Quick, "quick", false, "quarter-size inputs, minimum passes; the report is marked and -compare refuses it")
	workload := fs.String("workload", strings.Join(workloads, ","), "workloads to run, comma-separated")
	out := fs.String("out", outDir+"/report.json", "report file to append the runs to")
	compare := fs.Bool("compare", false, "compare two report files given as arguments, run nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two report files")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 {
		cfg.Tracer = newTracer()
	}
	if cfg.Quick {
		cfg.Seconds = 0
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	var runs []runReport
	for _, w := range strings.Split(*workload, ",") {
		rep, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w, err)
			return 1
		}
		if !printRun(stdout, rep) {
			code = 1
		}
		runs = append(runs, *rep)
	}
	if err := appendReport(*out, runs); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if cfg.Tracer != nil {
		if err := cfg.Tracer.write(filepath.Join(outDir, "trace.ndjson")); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
