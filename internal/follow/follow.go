package follow

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sync"

	"datamaran/internal/parser"
	"datamaran/internal/pipeline"
)

// maxPrefixBytes caps the identity-hash prefix. Hashing more buys
// little: rotation replaces the whole head of the file, so the first
// bytes diverge immediately, while a short cap keeps the per-file
// planning cost constant.
const maxPrefixBytes = 64 << 10

// Action classifies how a re-index should handle a checkpointed file.
type Action int

const (
	// ActionFull means extract from byte 0 (no usable checkpoint).
	ActionFull Action = iota
	// ActionResume means extract from the checkpoint offset.
	ActionResume
	// ActionUnchanged means the file has not changed since the
	// checkpoint; no extraction is needed.
	ActionUnchanged
)

// String names the action for reports.
func (a Action) String() string {
	switch a {
	case ActionFull:
		return "full"
	case ActionResume:
		return "resumed"
	case ActionUnchanged:
		return "unchanged"
	}
	return "unknown"
}

// Plan is a planning decision for one file.
type Plan struct {
	// Action says how to extract the file.
	Action Action
	// Reason explains a full re-extraction ("new", "rotated",
	// "truncated"); empty for resume/unchanged.
	Reason string
	// Size is the file size observed while planning.
	Size int64
}

// PlanFile decides how to re-index path given its checkpoint (nil means
// never seen). Rotation and truncation are detected by size and
// prefix-hash heuristics — the same identity tests log shippers use —
// and demote the file to full re-extraction rather than producing a
// corrupt resume.
func PlanFile(path string, cp *Checkpoint) (Plan, error) {
	info, err := os.Stat(path)
	if err != nil {
		return Plan{}, err
	}
	size := info.Size()
	if cp == nil {
		return Plan{Action: ActionFull, Reason: "new", Size: size}, nil
	}
	if size < cp.Size {
		// The file shrank: either truncated in place or rotated to a
		// shorter file. Both invalidate every offset we hold.
		return Plan{Action: ActionFull, Reason: "truncated", Size: size}, nil
	}
	sha, err := hashPrefix(path, cp.PrefixLen)
	if err != nil {
		return Plan{}, err
	}
	if sha != cp.PrefixSHA {
		return Plan{Action: ActionFull, Reason: "rotated", Size: size}, nil
	}
	if size == cp.Size {
		return Plan{Action: ActionUnchanged, Size: size}, nil
	}
	return Plan{Action: ActionResume, Size: size}, nil
}

// hashPrefix returns the hex SHA-256 of the file's first n bytes.
func hashPrefix(path string, n int64) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	return hashPrefixAt(f, n)
}

// hashPrefixAt hashes the first n bytes through an already-open handle
// — the checkpoint writer uses the same handle it extracted from, so a
// rotation racing the extraction cannot pair one file's geometry with
// another file's identity hash.
func hashPrefixAt(f *os.File, n int64) (string, error) {
	h := sha256.New()
	buf := hashBufs.Get().(*[]byte)
	defer hashBufs.Put(buf)
	if _, err := io.CopyBuffer(h, io.NewSectionReader(f, 0, n), *buf); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashBufs holds the read buffers of hashPrefixAt: every planned and every
// extracted file is hashed, and a buffer allocated per call (io.Copy's) was
// more than most small files' own bytes.
var hashBufs = sync.Pool{New: func() any {
	buf := make([]byte, 32<<10)
	return &buf
}}

// Config parameterizes an incremental extraction.
type Config struct {
	// ShardSize is the streaming engine's shard granularity (0 means
	// the pipeline default).
	ShardSize int
	// Workers is the per-shard matching parallelism (0 means all
	// cores). Worker count never changes any output.
	Workers int
	// OnBatch and OnNoise receive the extracted region's output as
	// pipeline.Config's hooks of the same names do, in whole-file
	// coordinates. Extract keeps none of it: with OnBatch nil, the
	// region's records are counted and dropped.
	OnBatch func(*pipeline.Batch) error
	OnNoise func(line int) error
}

// Counts is what one Extract run found in the region it extracted.
type Counts struct {
	// Records counts the region's records per record type, and
	// Provisional those of them that start at or past the successor
	// checkpoint: the next resume emits them again.
	Records, Provisional []int
	// Noise counts the region's noise lines.
	Noise int
}

// Total is the region's record count over every type.
func (c Counts) Total() int {
	n := 0
	for _, r := range c.Records {
		n += r
	}
	return n
}

// Extract applies a format's compiled templates to the file at path,
// resuming at cp when given (nil extracts from byte 0). The records and
// noise lines of the extracted region — [cp.Offset, EOF), in whole-file
// coordinates — go to cfg's hooks as they are decided, so a run holds
// one batch of them, never the region; Extract returns their counts and
// the successor checkpoint for relPath.
//
// The equivalence contract: the records and noise of the previous runs
// restricted to [0, cp.Offset), concatenated with this run's, are
// exactly the one-shot extraction of the whole file. The checkpoint's
// cumulative counters track the finalized region so reports can state
// whole-file totals without re-reading finalized bytes.
func Extract(ctx context.Context, path, relPath string, matchers []*parser.Matcher, fingerprint string, cp *Checkpoint, cfg Config) (Counts, *Checkpoint, error) {
	var baseOff int64
	var baseLine, baseRecords, baseNoise int
	if cp != nil {
		baseOff, baseLine = cp.Offset, cp.Line
		baseRecords, baseNoise = cp.Records, cp.Noise
	}
	n := Counts{Records: make([]int, len(matchers)), Provisional: make([]int, len(matchers))}
	f, err := os.Open(path)
	if err != nil {
		return Counts{}, nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return Counts{}, nil, err
	}
	size := info.Size()
	if size < baseOff {
		return Counts{}, nil, fmt.Errorf("follow: %s shrank below checkpoint offset %d (size %d); replan required", relPath, baseOff, size)
	}
	if size == baseOff {
		// Nothing beyond the checkpoint: the region is empty and the
		// checkpoint only refreshes its size observation.
		ncp := *checkpointOrZero(cp, relPath, fingerprint)
		ncp.Size = size
		return n, &ncp, nil
	}
	if _, err := f.Seek(baseOff, io.SeekStart); err != nil {
		return Counts{}, nil, err
	}
	// Without a hook the engine would build every record into its Result.
	onBatch := cfg.OnBatch
	if onBatch == nil {
		onBatch = func(*pipeline.Batch) error { return nil }
	}
	var boundary pipeline.Boundary
	// Bound the read at the size observed above: a writer appending
	// mid-run cannot move the region under us, and a partial trailing
	// line simply stays beyond the next checkpoint.
	res, err := pipeline.RunContext(ctx, io.LimitReader(f, size-baseOff), pipeline.Config{
		Matchers:  matchers,
		ShardSize: cfg.ShardSize,
		Workers:   cfg.Workers,
		BaseLine:  baseLine,
		BaseByte:  int(baseOff),
		Boundary:  &boundary,
		OnBatch:   onBatch,
		OnNoise: func(line int) error {
			n.Noise++
			if cfg.OnNoise != nil {
				return cfg.OnNoise(line)
			}
			return nil
		},
	})
	if err != nil {
		return Counts{}, nil, err
	}
	below := 0
	for i, s := range res.Structures {
		n.Records[i] = s.Records
		n.Provisional[i] = s.Records - boundary.Records[i]
		below += boundary.Records[i]
	}
	ncp := &Checkpoint{
		Path:         relPath,
		Fingerprint:  fingerprint,
		Offset:       int64(boundary.Byte),
		Line:         boundary.Line,
		Size:         size,
		Records:      baseRecords + below,
		Noise:        baseNoise + boundary.Noise,
		TotalRecords: baseRecords + n.Total(),
		TotalNoise:   baseNoise + n.Noise,
	}
	ncp.PrefixLen = size
	if ncp.PrefixLen > maxPrefixBytes {
		ncp.PrefixLen = maxPrefixBytes
	}
	// Hash through the extraction handle, not the path: a rotation
	// between the extraction and the hash must not bind the old file's
	// offsets to the new file's identity.
	if ncp.PrefixSHA, err = hashPrefixAt(f, ncp.PrefixLen); err != nil {
		return Counts{}, nil, err
	}
	return n, ncp, nil
}

// Observe returns an identity-only checkpoint (no profile, no offsets)
// for a file with no extractable structure. It lets an incremental
// crawl skip the discovery attempt on unchanged unstructured files —
// only a grown, rotated or truncated file is reclassified.
func Observe(path, relPath string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Stat and hash through one handle so a rotation cannot interleave.
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	cp := &Checkpoint{Path: relPath, Size: info.Size(), PrefixLen: info.Size()}
	if cp.PrefixLen > maxPrefixBytes {
		cp.PrefixLen = maxPrefixBytes
	}
	if cp.PrefixSHA, err = hashPrefixAt(f, cp.PrefixLen); err != nil {
		return nil, err
	}
	return cp, nil
}

// checkpointOrZero returns a copy of cp, or a zero checkpoint for the
// path when cp is nil.
func checkpointOrZero(cp *Checkpoint, relPath, fingerprint string) *Checkpoint {
	if cp != nil {
		c := *cp
		return &c
	}
	return &Checkpoint{Path: relPath, Fingerprint: fingerprint}
}
