package datamaran

import (
	"context"
	"io"

	"datamaran/internal/lake"
	"datamaran/internal/query"
)

// QueryOptions configures Query, the relational query entry point over
// a lake's record store.
type QueryOptions struct {
	// StorePath is the record-store directory: the per-format columnar
	// segments written by IndexDir (IndexOptions.StorePath) or by
	// `datamaran serve -store`. Required.
	StorePath string
	// Explain selects an explain mode instead of result rows: "plan"
	// returns the plan tree without executing (deterministic), and
	// "analyze" executes the query and annotates the tree with
	// per-operator rows, batches, wall times, and scan blocks decoded vs
	// zone-map-pruned. Either way the output is a single-column "plan"
	// row stream, byte-identical across the Go API, the CLI and
	// /v1/query. Empty ("" or "none") runs the query normally.
	Explain string
}

// TableStat summarizes one record-store table straight from the
// manifest — no segment is opened or scanned.
type TableStat struct {
	// Name is the table's query name: the format fingerprint, with a
	// "_<k>" suffix for record types beyond the first.
	Name string
	// Columns is the table width (the denormalized f0..fN schema).
	Columns int
	// Rows is the total row count across segments.
	Rows int
	// Segments counts the contributing source files.
	Segments int
}

// StoreTables lists a record store's tables with their manifest-held
// sizes, in the manifest's (fingerprint, type) order. The counts come
// from the manifest alone, so this is cheap regardless of store size —
// it is what `datamaran query -tables` and the daemon's /v1/status
// report.
func StoreTables(storePath string) ([]TableStat, error) {
	store, err := lake.OpenSegmentStore(storePath)
	if err != nil {
		return nil, err
	}
	var out []TableStat
	for _, ti := range store.Tables() {
		out = append(out, TableStat{Name: ti.Name, Columns: len(ti.Columns), Rows: ti.Rows, Segments: ti.Segments})
	}
	return out, nil
}

// QueryRows streams one query's results. Rows arrive as the underlying
// segment scans produce them — memory stays bounded by the engine's
// block and hash-table working set, never the full result.
type QueryRows struct {
	rows *query.Rows
}

// Columns returns the output column names (as the SELECT list renders
// them, e.g. "j.f1" or "count(*)").
func (r *QueryRows) Columns() []string { return r.rows.Columns() }

// Kinds returns the per-column scalar kinds ("int", "float", "string").
func (r *QueryRows) Kinds() []string {
	ks := r.rows.Kinds()
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = string(k)
	}
	return out
}

// Next returns the next result row, or io.EOF after the last.
func (r *QueryRows) Next() ([]string, error) { return r.rows.Next() }

// Close releases the query's open scans.
func (r *QueryRows) Close() error { return r.rows.Close() }

// WriteCSV drains the remaining rows as CSV — byte-identical to the
// CLI's `datamaran query -output csv` and the daemon's
// /v1/query?output=csv for the same store and query.
func (r *QueryRows) WriteCSV(w io.Writer) error { return query.WriteCSV(w, r.rows, nil) }

// WriteNDJSON drains the remaining rows as NDJSON: a
// {"columns":…,"kinds":…} schema line, then one {"values":…} object per
// row — byte-identical to the other query surfaces.
func (r *QueryRows) WriteNDJSON(w io.Writer) error { return query.WriteNDJSON(w, r.rows, nil) }

// Query parses and runs one relational query against a record store.
// The text form is a minimal SELECT:
//
//	SELECT cols | aggregates | *
//	FROM table [AS alias] [, table [AS alias]]...
//	[WHERE pred [AND pred]...]
//	[GROUP BY cols] [ORDER BY expr [ASC|DESC], ...] [LIMIT n]
//
// Tables are format fingerprints (unique prefixes accepted, "_<k>"
// suffix for record types beyond the first); columns are the
// denormalized f0..fN. Predicates compare a column to a literal or to
// another column (equi-joins). Execution streams a block at a time:
// selection, projection, hash equi-join, group-by, sort and top-k run
// as pull operators over the column batches the segment scans decode,
// joins ordered greedily by visible selectivity, and ctx cancels the
// run between batches.
func Query(ctx context.Context, text string, opts QueryOptions) (*QueryRows, error) {
	explain, err := query.ParseExplainMode(opts.Explain)
	if err != nil {
		return nil, err
	}
	q, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	store, err := lake.OpenSegmentStore(opts.StorePath)
	if err != nil {
		return nil, err
	}
	rows, err := query.RunWith(ctx, query.StoreCatalog(store), q, query.Options{Explain: explain})
	if err != nil {
		return nil, err
	}
	return &QueryRows{rows: rows}, nil
}
