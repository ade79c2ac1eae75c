package main

import (
	"fmt"
	"math"
)

// metricDef names one reported metric. BENCHMARK.json repeats these
// tables; TestBenchmarkJSONMatchesTables keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share by which the median may worsen
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them: the workload decides which phase gets the large
// input and most of the measuring time, the others run at their small
// size. The timing bounds are the widest the contract allows: restated
// at the reference host speed the timings of a shared two-core VM still
// spread by up to 0.09 from run to run, and the driver's check wants a
// bound about three times clear of that (README.md, "Bounds"); the two
// exact metrics keep tight ones.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"discover_s", "s", "lower", 0.25},
	{"accuracy", "share", "higher", 0.02},
	{"extract_mib_per_s", "MiB/s", "higher", 0.25},
	{"ingest_mib_per_s", "MiB/s", "higher", 0.25},
	{"recrawl_s", "s", "lower", 0.25},
	{"store_bytes_per_input_byte", "ratio", "lower", 0.01},
	{"scan_p50_ms", "ms", "lower", 0.25},
	{"wide_p50_ms", "ms", "lower", 0.25},
	{"join_p50_ms", "ms", "lower", 0.25},
	{"topk_p50_ms", "ms", "lower", 0.25},
	{"groupby_p50_ms", "ms", "lower", 0.25},
	{"http_query_p50_ms", "ms", "lower", 0.25},
	{"http_extract_p50_ms", "ms", "lower", 0.25},
}

// queryShapes are the five in-process query shapes, in report order.
var queryShapes = []string{"scan", "wide", "join", "topk", "groupby"}

// perLayer are the metrics of single layers, taken by the traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "core.generation_s", Unit: "s"},
		{Name: "core.pruning_s", Unit: "s"},
		{Name: "core.evaluation_s", Unit: "s"},
		{Name: "core.extraction_s", Unit: "s"},
		{Name: "generation.generate_s", Unit: "s"},
		{Name: "generation.candidates", Unit: "count"},
		{Name: "generation.charsets_tried", Unit: "count"},
		{Name: "score.plain_s", Unit: "s"},
		{Name: "score.templates_scored", Unit: "count"},
		{Name: "refine.refine_s", Unit: "s"},
		{Name: "refine.share_of_evaluation", Unit: "share"},
		{Name: "textio.read_s", Unit: "s"},
		{Name: "textio.chunks", Unit: "count"},
		{Name: "parser.scan_s", Unit: "s"},
		{Name: "parser.scan_mib_per_s", Unit: "MiB/s", Better: "higher"},
		{Name: "parser.records", Unit: "count", Better: "higher"},
		{Name: "parser.noise_lines", Unit: "count"},
		{Name: "pipeline.w1_mib_per_s", Unit: "MiB/s", Better: "higher"},
		{Name: "pipeline.w2_mib_per_s", Unit: "MiB/s", Better: "higher"},
		{Name: "pipeline.speedup_w2", Unit: "ratio", Better: "higher"},
		{Name: "pipeline.self_s", Unit: "s"},
		{Name: "relational.tables_s", Unit: "s"},
		{Name: "lake.walk_s", Unit: "s"},
		{Name: "lake.classify_s", Unit: "s"},
		{Name: "lake.extract_s", Unit: "s"},
		{Name: "lake.commit_s", Unit: "s"},
		{Name: "lake.compact_s", Unit: "s"},
		{Name: "lake.registry_save_s", Unit: "s"},
		{Name: "follow.save_s", Unit: "s"},
		{Name: "lake.encode_s", Unit: "s"},
		{Name: "lake.encode_mib_per_s", Unit: "MiB/s", Better: "higher"},
		{Name: "lake.files", Unit: "count", Better: "higher"},
		{Name: "lake.cache_hits", Unit: "count", Better: "higher"},
		{Name: "lake.rows", Unit: "count", Better: "higher"},
		{Name: "lake.segments", Unit: "count"},
		{Name: "lake.store_bytes", Unit: "bytes"},
		{Name: "follow.resumed", Unit: "count", Better: "higher"},
		{Name: "follow.unchanged", Unit: "count", Better: "higher"},
		{Name: "follow.full", Unit: "count"},
		{Name: "lake.recrawl_extract_s", Unit: "s"},
		{Name: "lake.recrawl_commit_s", Unit: "s"},
		{Name: "lake.recrawl_compact_s", Unit: "s"},
		{Name: "lake.open_ms", Unit: "ms"},
		{Name: "lake.scan_full_ms", Unit: "ms"},
		{Name: "lake.scan_cols1_ms", Unit: "ms"},
		{Name: "lake.scan_pred_ms", Unit: "ms"},
		{Name: "lake.blocks_decoded", Unit: "count"},
		{Name: "lake.blocks_pruned", Unit: "count", Better: "higher"},
		{Name: "lake.pruned_share", Unit: "share", Better: "higher"},
		{Name: "query.parse_us", Unit: "us"},
	}
	for _, shape := range queryShapes {
		defs = append(defs,
			metricDef{Name: "query." + shape + ".rows_scanned", Unit: "count"},
			metricDef{Name: "query." + shape + ".blocks_decoded", Unit: "count"},
			metricDef{Name: "query." + shape + ".blocks_pruned", Unit: "count", Better: "higher"})
	}
	defs = append(defs,
		metricDef{Name: "query.join_self_ms", Unit: "ms"},
		metricDef{Name: "query.topk_self_ms", Unit: "ms"},
		metricDef{Name: "query.groupby_self_ms", Unit: "ms"},
		metricDef{Name: "query.csv_ms", Unit: "ms"},
		metricDef{Name: "query.ndjson_ms", Unit: "ms"},
		metricDef{Name: "serve.http_overhead_ms", Unit: "ms"},
		metricDef{Name: "serve.http_wide_p50_ms", Unit: "ms"},
		metricDef{Name: "serve.query_p95_ms", Unit: "ms"},
		metricDef{Name: "serve.query_samples", Unit: "count", Better: "higher"},
		metricDef{Name: "serve.extract_p95_ms", Unit: "ms"},
		metricDef{Name: "serve.extract_samples", Unit: "count", Better: "higher"},
		metricDef{Name: "serve.qps", Unit: "1/s", Better: "higher"},
		metricDef{Name: "serve.shed", Unit: "count"},
		metricDef{Name: "serve.profile_cache_hit_share", Unit: "share", Better: "higher"},
		metricDef{Name: "proc.alloc_mib", Unit: "MiB"},
		metricDef{Name: "proc.gc_cpu_share", Unit: "share"},
		metricDef{Name: "proc.peak_rss_mib", Unit: "MiB"},
		metricDef{Name: "proc.calibration_ms", Unit: "ms"},
		metricDef{Name: "trace.overhead_share", Unit: "share"},
	)
	for i := range defs {
		if defs[i].Better == "" {
			defs[i].Better = "lower"
		}
	}
	return defs
}()

// sample is one reported metric: the median of its N values with the
// quartiles around it. Raw is the median as the clock read it, for the
// end-to-end timings that are reported at the reference host speed
// (outcome.calibrate); everywhere else it equals Value.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	Raw   float64 `json:"raw"`
}

// outcome collects what one workload run reports.
type outcome struct {
	defs      map[string]metricDef
	Metrics   map[string]sample `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
}

func newOutcome() *outcome {
	o := &outcome{defs: map[string]metricDef{}, Metrics: map[string]sample{}}
	for _, d := range endToEnd {
		o.defs[d.Name] = d
	}
	for _, d := range perLayer {
		o.defs[d.Name] = d
	}
	return o
}

// set records a metric as the median of values.
func (o *outcome) set(name string, values ...float64) {
	d, ok := o.defs[name]
	if !ok {
		panic("bench: metric " + name + " is in neither table")
	}
	q1, med, q3 := quartiles(values)
	o.Metrics[name] = sample{Value: med, Unit: d.Unit, Q1: q1, Q3: q3, N: len(values), Raw: med}
}

// calibrate restates the named end-to-end timings at the reference host
// speed: kernelMS is what the calibration kernel took between the passes
// that produced them, so on a host slowed to kernelMS/calibrationRefMS
// of the reference speed the times are divided, and the rates
// multiplied, by that ratio. Shares and ratios are left alone.
func (o *outcome) calibrate(kernelMS float64, names ...string) {
	slowdown := kernelMS / calibrationRefMS
	for _, name := range names {
		s, ok := o.Metrics[name]
		if !ok {
			continue
		}
		switch s.Unit {
		case "s", "ms":
			s.Value, s.Q1, s.Q3 = s.Value/slowdown, s.Q1/slowdown, s.Q3/slowdown
		case "MiB/s":
			s.Value, s.Q1, s.Q3 = s.Value*slowdown, s.Q1*slowdown, s.Q3*slowdown
		}
		o.Metrics[name] = s
	}
}

// op counts one operation; a false ok is a failure with its reason.
func (o *outcome) op(ok bool, format string, args ...any) {
	o.Attempted++
	if !ok {
		o.Failed++
		if len(o.Failures) < 20 {
			o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
		}
	}
}

// missing lists the metrics of table the run did not produce, or
// produced as something that is not a number.
func (o *outcome) missing(table []metricDef) []string {
	var out []string
	for _, d := range table {
		s, ok := o.Metrics[d.Name]
		if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			out = append(out, d.Name)
		}
	}
	return out
}
