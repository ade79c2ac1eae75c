// Package datamaran is a Go implementation of Datamaran (Gao, Huang,
// Parameswaran — SIGMOD 2018): fully unsupervised structure extraction
// from log datasets.
//
// Given a semi-structured log file, Datamaran discovers the record
// structure with no training examples, no record-boundary hints, and no
// per-dataset tokenizer configuration. It handles records spanning
// multiple lines, multiple record types interleaved in one file, and
// noise mixed between records. The result is a set of structure templates
// (restricted regular expressions over a field placeholder) plus every
// extracted record and field value, convertible to relational tables.
//
// Basic usage:
//
//	res, err := datamaran.Extract(data, datamaran.Options{})
//	if err != nil { ... }
//	for _, s := range res.Structures {
//	    fmt.Println(s.Template, s.Records)
//	}
//	for _, tbl := range res.TablesWith(datamaran.TablesOptions{}) {
//	    tbl.WriteCSV(os.Stdout)
//	}
//
// The pipeline is the paper's three-step design: a generation step that
// hashes the minimal structure templates of all candidate record windows
// to find high-coverage patterns, a pruning step ordering candidates by
// the assimilation score, and an evaluation step that refines (array
// unfolding, structure shifting) and scores candidates with a minimum
// description length regularity measure.
package datamaran

import (
	"context"
	"io"
	"os"
	"time"

	"datamaran/internal/core"
	"datamaran/internal/generation"
	"datamaran/internal/pipeline"
)

// SearchMode selects how the generation step enumerates RT-CharSet values.
type SearchMode int

const (
	// Exhaustive enumerates all 2^c charsets (the paper's default;
	// slower, more accurate).
	Exhaustive SearchMode = iota
	// Greedy grows the charset greedily, enumerating O(c²) subsets.
	Greedy
)

// Options configures extraction. The zero value selects the paper's
// defaults: α=10%, L=10, M=50, exhaustive search.
type Options struct {
	// Alpha is the minimum coverage threshold α as a fraction of the
	// dataset a record type must cover (default 0.10).
	Alpha float64
	// MaxSpan is L, the maximum number of lines one record may span
	// (default 10; any value <= 0 means the default). A value past the
	// input's line count costs nothing more than the line count.
	MaxSpan int
	// TopM is M, the number of structure templates retained after the
	// pruning step (default 50; -1 disables pruning).
	TopM int
	// Search selects Exhaustive or Greedy charset enumeration.
	Search SearchMode
	// MaxRecordTypes bounds how many interleaved record types the
	// multi-template loop may extract (default 8).
	MaxRecordTypes int
	// SampleBudget caps the bytes examined by the generation step;
	// 0 means 512 KiB, negative disables sampling. Extraction always
	// processes the full input.
	SampleBudget int
	// EvalBudget caps the bytes used for scoring and refinement;
	// 0 means 128 KiB, negative disables sampling.
	EvalBudget int
	// DisableRefinement turns off array unfolding and structure
	// shifting (exposed for ablation studies).
	DisableRefinement bool
	// Workers sets the goroutine parallelism of the extraction engine's
	// per-shard matching, for every Extract* entry point: 0 means
	// GOMAXPROCS, 1 is sequential. The output never depends on it.
	Workers int
	// ShardSize is the extraction engine's batch granularity in bytes.
	// 0 means 1 MiB. The output never depends on it.
	ShardSize int
	// DiscoveryBudget caps the input prefix ExtractReader and
	// ExtractStream buffer for structure discovery. 0 means 8 MiB.
	// Inputs no larger than the budget produce results identical to
	// Extract, which always discovers on the whole input.
	DiscoveryBudget int
}

// config maps the public options, and the profile p when there is one,
// onto the extraction engine: a profile hands the engine its compiled
// matchers.
func (o Options) config(p *Profile) pipeline.Config {
	cfg := pipeline.Config{
		Core: core.Options{
			Alpha:             o.Alpha,
			MaxSpan:           o.MaxSpan,
			TopM:              o.TopM,
			MaxRecordTypes:    o.MaxRecordTypes,
			SampleBudget:      o.SampleBudget,
			EvalBudget:        o.EvalBudget,
			DisableRefinement: o.DisableRefinement,
		},
		ShardSize:       o.ShardSize,
		Workers:         o.Workers,
		DiscoveryBudget: o.DiscoveryBudget,
	}
	if o.Search == Greedy {
		cfg.Core.Search = generation.Greedy
	}
	if p != nil {
		cfg.Matchers = p.matchers
	}
	return cfg
}

// Field is one extracted field value: its Column in the record type's
// template, its Repetition ordinal inside a list (0 outside lists), its
// Start and End byte offsets in the input, and its text, Value. It is the
// extraction engine's own field type, so records reach the caller without
// their fields being copied.
//
// Value is a substring of its batch's record text: keeping it (or the
// Record it came from) keeps that batch's storage reachable — see Record.
type Field = core.FieldValue

// Record is one extracted record.
//
// Retention. The engine allocates per batch, not per record: the Fields of
// the records a worker materialized for one batch are runs of one slice,
// and their Values substrings of one string holding those records' text.
// A Record stays valid for as long as it is referenced — nothing is reused
// or overwritten — but a retained Record, Fields slice or Value keeps its
// whole batch's storage reachable: at most about Options.ShardSize of
// record text plus the field slice over it. Keeping every record, or none,
// costs nothing extra; to keep a few out of many, copy what is kept
// (strings.Clone for a Value).
type Record struct {
	// Type identifies the record's structure (index into
	// Result.Structures).
	Type int
	// StartLine and EndLine delimit the record's lines [StartLine, EndLine).
	StartLine, EndLine int
	// Fields lists the record's field values in template order. Appending
	// to it never reaches another record's fields (cap == len).
	Fields []Field
}

// Structure describes one discovered record type.
type Structure struct {
	// Type is the structure's id, in discovery order.
	Type int
	// Template is the structure template in the paper's notation
	// (fields as 'F', lists as "({body}x)*{body}y").
	Template string
	// Columns is the number of field columns.
	Columns int
	// Records is the number of records extracted.
	Records int
	// Coverage is the total byte length of those records.
	Coverage int
	// MultiLine reports whether records span more than one line.
	MultiLine bool
}

// Timing reports where extraction time went (Table 3 of the paper).
type Timing struct {
	Generation time.Duration
	Pruning    time.Duration
	Evaluation time.Duration
	// Refinement is the part of Evaluation spent refining candidates
	// (array unfolding and structure shifting).
	Refinement time.Duration
	Extraction time.Duration
}

// Total returns the summed step time (Refinement is inside Evaluation).
func (t Timing) Total() time.Duration {
	return t.Generation + t.Pruning + t.Evaluation + t.Extraction
}

// Result holds a completed extraction.
type Result struct {
	// Structures lists the discovered record types, best first.
	Structures []Structure
	// Records lists every extracted record in input order per type. The
	// records' Fields share storage with what TablesWith reads: treat
	// them as read-only.
	Records []Record
	// NoiseLines lists input line indices not covered by any record.
	NoiseLines []int
	// Timing breaks down the run time by pipeline step.
	Timing Timing

	res *core.Result
}

// Extract runs Datamaran on data: structure discovery on the whole input,
// then the extraction engine over it.
func Extract(data []byte, opts Options) (*Result, error) {
	return extract(nil, data, nil, opts, nil)
}

// wrapResult converts the internal result into the public form.
func wrapResult(res *core.Result) *Result {
	out := &Result{res: res, NoiseLines: res.NoiseLines,
		Timing: Timing{
			Generation: res.Timing.Generation,
			Pruning:    res.Timing.Pruning,
			Evaluation: res.Timing.Evaluation,
			Refinement: res.Timing.Refinement,
			Extraction: res.Timing.Extraction,
		}}
	// One pass over the records, one allocation: the record headers.
	// Their Fields are views of the engine's (capacity-clipped, so an
	// append to one record's Fields cannot reach its neighbour's).
	multi := make([]bool, len(res.Structures)) // by record type
	if len(res.Records) > 0 {
		out.Records = make([]Record, len(res.Records))
	}
	for i, r := range res.Records {
		out.Records[i] = publicRecord(r)
		if r.EndLine-r.StartLine > 1 && r.TypeID < len(multi) {
			multi[r.TypeID] = true
		}
	}
	if len(res.Structures) > 0 {
		out.Structures = make([]Structure, 0, len(res.Structures))
	}
	for _, s := range res.Structures {
		out.Structures = append(out.Structures, Structure{
			Type:      s.TypeID,
			Template:  s.Template.String(),
			Columns:   s.Template.NumFields(),
			Records:   s.Records,
			Coverage:  s.Coverage,
			MultiLine: s.TypeID < len(multi) && multi[s.TypeID],
		})
	}
	return out
}

// publicRecord is the public view of one internal record: a header copy
// whose Fields are the engine's own (nil when there are none).
func publicRecord(r core.RecordOut) Record {
	rec := Record{Type: r.TypeID, StartLine: r.StartLine, EndLine: r.EndLine}
	if n := len(r.Fields); n > 0 {
		rec.Fields = r.Fields[:n:n]
	}
	return rec
}

// ExtractReader is Extract over a stream: the input is consumed as
// line-aligned shards, structure discovery runs on a bounded prefix
// (Options.DiscoveryBudget), and extraction fans per-shard template
// matching out over Options.Workers goroutines. The input is
// never buffered whole — memory stays bounded by a few shards per record
// type (the extracted records themselves are still materialized into the
// Result; use ExtractStream to bound that too).
//
// For inputs no larger than the discovery budget the result's structures,
// records and noise lines are identical to Extract's.
func ExtractReader(r io.Reader, opts Options) (*Result, error) {
	return extract(r, nil, nil, opts, nil)
}

// ExtractStream is ExtractReader in bounded-memory form: every record is
// yielded to fn as soon as its shard is finalized instead of being
// accumulated. Records of one type arrive in input order; different types
// interleave at shard granularity. A non-nil error from fn aborts the
// run. A Record may be kept after fn returns — nothing is reused — but
// storage is per batch, so a kept Record (or one Value of it) keeps about
// Options.ShardSize of record text and its field slice reachable: keep
// all, keep none, or strings.Clone the few values worth keeping (see
// Record). The returned Result carries the structures, noise lines and
// timing, with Records empty — so the table builders return schema-only
// tables for a streamed result; use ExtractReader when tables are
// needed. Memory is bounded except for the noise line indices, which
// still accumulate into Result.NoiseLines (8 bytes per unmatched line).
func ExtractStream(r io.Reader, opts Options, fn func(Record) error) (*Result, error) {
	return extract(r, nil, nil, opts, fn)
}

// extract is the one entry point behind every Extract* function. The
// input is r, or the slice data when r is nil; a nil profile means discover
// first, a nil fn means accumulate the records into the Result. In
// callback mode the per-structure MultiLine flag (normally derived from
// Result.Records) is reconstructed from the records flowing past.
func extract(r io.Reader, data []byte, p *Profile, opts Options, fn func(Record) error) (*Result, error) {
	cfg := opts.config(p)
	var multi []bool // by record type: one of its records spans lines
	if fn != nil {
		cfg.OnRecord = func(ro core.RecordOut) error {
			if ro.EndLine-ro.StartLine > 1 {
				for len(multi) <= ro.TypeID {
					multi = append(multi, false)
				}
				multi[ro.TypeID] = true
			}
			return fn(publicRecord(ro))
		}
	}
	var res *core.Result
	var err error
	ctx := context.TODO() // the Extract* signatures carry none
	if r != nil {
		res, err = pipeline.RunContext(ctx, r, cfg)
	} else {
		res, err = pipeline.RunBytes(ctx, data, cfg)
	}
	if err != nil {
		return nil, err
	}
	out := wrapResult(res)
	for i := range out.Structures {
		if t := out.Structures[i].Type; t < len(multi) && multi[t] {
			out.Structures[i].MultiLine = true
		}
	}
	return out, nil
}

// ExtractFile extracts from the named file.
func ExtractFile(path string, opts Options) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Extract(data, opts)
}
