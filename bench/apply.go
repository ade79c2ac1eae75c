package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"datamaran"
	"datamaran/internal/datagen"
	"datamaran/internal/parser"
	"datamaran/internal/template"
	"datamaran/internal/textio"
)

// streamInput is the apply phase's input: a file of a known format, the
// profile learned for it in set-up, and what the generator knows.
type streamInput struct {
	Path    string
	Profile *datamaran.Profile
	Truth   streamTruth
}

// setupStream writes the stream file and learns its profile from one
// small block of the same generator. The records are single lines, and
// saying so (MaxSpan 2) keeps set-up to a tenth of a second; discovery
// under default options is what discover_cold measures.
func setupStream(dir string, seed int64, size int64) (*streamInput, error) {
	learn := datagen.NetstatOutput(100, seed*1000+999).Data
	res, err := datamaran.Extract(learn, datamaran.Options{Workers: 1, MaxSpan: 2})
	if err != nil {
		return nil, fmt.Errorf("learn stream profile: %w", err)
	}
	in := &streamInput{Path: filepath.Join(dir, "stream.log"), Profile: res.Profile()}
	blocks := genStreamBlocks(seed, streamBlocks, streamBlockRows)
	in.Truth, err = genStreamFile(in.Path, seed, size, blocks, streamBlockRows)
	return in, err
}

// applied is what one pass over the stream file produced.
type applied struct {
	Wall    time.Duration
	Records int
	Noise   int
	// Hash folds every field value, per record type in input order (the
	// order the stream guarantees), so it is equal for any worker count
	// exactly when the extracted field bytes are.
	Hash uint64
}

// applyPass streams the file through the profile once.
func applyPass(in *streamInput, workers int, tr *tracer) (applied, error) {
	f, err := os.Open(in.Path)
	if err != nil {
		return applied{}, err
	}
	defer f.Close()
	var out applied
	var hashes []uint64
	sp := tr.start("datamaran.ExtractStreamWithProfile", 0)
	t0 := time.Now()
	res, err := datamaran.ExtractStreamWithProfile(f, in.Profile, datamaran.Options{Workers: workers},
		func(r datamaran.Record) error {
			out.Records++
			for len(hashes) <= r.Type {
				hashes = append(hashes, fnvOffset)
			}
			h := hashes[r.Type]
			for _, fl := range r.Fields {
				h = fnvString(h, fl.Value)
			}
			hashes[r.Type] = h
			return nil
		})
	out.Wall = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return applied{}, err
	}
	out.Noise = len(res.NoiseLines)
	for _, h := range hashes {
		out.Hash = out.Hash*fnvPrime ^ h
	}
	return out, nil
}

// checkApplied counts one pass as an operation: it must have found
// exactly the generator's records and noise lines, and the same field
// bytes as the sequential reference.
func checkApplied(in *streamInput, got applied, err error, ref *applied, o *outcome) {
	switch {
	case err != nil:
		o.op(false, "apply: %v", err)
	case got.Records != in.Truth.Records || got.Noise != in.Truth.Noise:
		o.op(false, "apply: %d records, %d noise lines; generator wrote %d and %d",
			got.Records, got.Noise, in.Truth.Records, in.Truth.Noise)
	case ref != nil && got.Hash != ref.Hash:
		o.op(false, "apply: field hash %x differs from the Workers:1 hash %x", got.Hash, ref.Hash)
	default:
		o.op(true, "")
	}
}

// applyMeasure takes two-worker passes over the stream file and reports
// extract_mib_per_s.
type applyMeasure struct {
	in    *streamInput
	o     *outcome
	ref   applied // the sequential reference pass
	walls []float64
}

// newApplyMeasure takes the sequential reference pass, which also warms
// the file cache.
func newApplyMeasure(in *streamInput, o *outcome) *applyMeasure {
	ref, err := applyPass(in, 1, nil)
	checkApplied(in, ref, err, nil, o)
	return &applyMeasure{in: in, o: o, ref: ref}
}

func (m *applyMeasure) pass(timed bool) {
	got, err := applyPass(m.in, 2, nil)
	checkApplied(m.in, got, err, &m.ref, m.o)
	if err == nil && timed {
		m.walls = append(m.walls, got.Wall.Seconds())
	}
}

// report sets the metric and returns the median two-worker wall time.
func (m *applyMeasure) report() float64 {
	mib := float64(m.in.Truth.Bytes) / (1 << 20)
	rates := make([]float64, len(m.walls))
	for i, w := range m.walls {
		rates[i] = mib / w
	}
	m.o.set("extract_mib_per_s", rates...)
	return median(m.walls)
}

// profileTemplates recovers the templates of a profile through its
// serialized form, the only way out of the public type.
func profileTemplates(p *datamaran.Profile) ([]*template.Node, error) {
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	var pj struct {
		Templates []json.RawMessage `json:"templates"`
	}
	if err := json.Unmarshal(raw, &pj); err != nil {
		return nil, err
	}
	var out []*template.Node
	for _, t := range pj.Templates {
		n, err := template.UnmarshalNode(t)
		if err != nil {
			return nil, err
		}
		out = append(out, n.Normalize())
	}
	return out, nil
}

// traceApply runs the traced two-worker pass and then the layers under
// it on their own: reading alone, matching alone, and table building.
// ref is the Workers:1 pass and w2 the median Workers:2 wall time from
// the untraced measurement. It returns the traced pass time.
func traceApply(in *streamInput, ref applied, w2 float64, tr *tracer, o *outcome) (float64, error) {
	traced, err := applyPass(in, 2, tr)
	checkApplied(in, traced, err, &ref, o)
	if err != nil {
		return 0, err
	}

	f, err := os.Open(in.Path)
	if err != nil {
		return 0, err
	}
	sp := tr.start("textio.ChunkReader", 0)
	chunks := 0
	for cr := textio.NewChunkReader(f, 1<<20); ; chunks++ {
		if _, err := cr.Next(); err != nil {
			if err != io.EOF {
				f.Close()
				return 0, err
			}
			break
		}
	}
	tr.end(sp)
	f.Close()
	readS := tr.seconds("textio.ChunkReader")
	o.set("textio.read_s", readS)
	o.set("textio.chunks", float64(chunks))

	// Matching alone: the same bytes from memory, one goroutine, cut
	// into the pipeline's 1 MiB line-aligned shards so the matcher's
	// arenas stay the size they have in the pipeline.
	data, err := os.ReadFile(in.Path)
	if err != nil {
		return 0, err
	}
	templates, err := profileTemplates(in.Profile)
	if err != nil {
		return 0, err
	}
	matchers := make([]*parser.Matcher, len(templates))
	for i, t := range templates {
		matchers[i] = parser.NewMatcher(t)
	}
	records, recordLines, totalLines := 0, 0, 0
	var scan parser.ScanResult
	for rest := data; len(rest) > 0; {
		cut := min(len(rest), 1<<20)
		cut = bytes.LastIndexByte(rest[:cut], '\n') + 1
		lines := textio.NewLines(rest[:cut])
		rest = rest[cut:]
		totalLines += lines.N()
		for _, m := range matchers {
			sp := tr.start("parser.Matcher.ScanInto", 0)
			m.ScanInto(lines, &scan)
			tr.end(sp)
			records += len(scan.Records)
			for _, r := range scan.Records {
				recordLines += r.EndLine - r.StartLine
			}
		}
	}
	scanS := tr.seconds("parser.Matcher.ScanInto")
	mib := float64(len(data)) / (1 << 20)
	o.set("parser.scan_s", scanS)
	o.set("parser.scan_mib_per_s", mib/scanS)
	o.set("parser.records", float64(records))
	o.set("parser.noise_lines", float64(totalLines-recordLines))

	o.set("pipeline.w1_mib_per_s", mib/ref.Wall.Seconds())
	o.set("pipeline.w2_mib_per_s", mib/w2)
	o.set("pipeline.speedup_w2", ref.Wall.Seconds()/w2)
	o.set("pipeline.self_s", ref.Wall.Seconds()-scanS-readS)

	// Table building has no end-to-end metric yet; 16 MiB in memory is
	// the size the library and CLI CSV path is used at.
	part := data[:min(len(data), 16<<20)]
	part = part[:bytes.LastIndexByte(part, '\n')+1]
	res, err := datamaran.ExtractWithProfile(part, in.Profile)
	if err != nil {
		return 0, err
	}
	sp = tr.start("datamaran.Result.TablesWith", 0)
	res.TablesWith(datamaran.TablesOptions{})
	tr.end(sp)
	o.set("relational.tables_s", tr.seconds("datamaran.Result.TablesWith"))
	return traced.Wall.Seconds(), nil
}
