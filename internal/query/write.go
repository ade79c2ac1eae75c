package query

import (
	"encoding/json"
	"io"

	"datamaran/internal/lake"
	"datamaran/internal/relational"
	"datamaran/internal/semtype"
)

// The output writers. Every query surface — the in-process API, the
// CLI, the daemon's /v1/query — streams results through these, so the
// three are byte-identical by construction.

// WriteCSV streams the result as CSV: header line, then one line per
// row, quoted exactly like the relational package's table dumps. flush
// (optional) runs after the header and then periodically, so a daemon
// can push partial results.
func WriteCSV(w io.Writer, rows *Rows, flush func()) error {
	if err := relational.WriteCSVRow(w, rows.Columns()); err != nil {
		return err
	}
	n := 0
	for {
		row, err := rows.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := relational.WriteCSVRow(w, row); err != nil {
			return err
		}
		if n++; flush != nil && n&63 == 0 {
			flush()
		}
	}
}

// ndjsonHeader is the first NDJSON line: the column schema.
type ndjsonHeader struct {
	Columns []string       `json:"columns"`
	Kinds   []semtype.Kind `json:"kinds"`
}

// ndjsonRow is one result row.
type ndjsonRow struct {
	Values []string `json:"values"`
}

// WriteNDJSON streams the result as NDJSON: a {"columns":…,"kinds":…}
// schema line, then one {"values":…} object per row.
func WriteNDJSON(w io.Writer, rows *Rows, flush func()) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(ndjsonHeader{Columns: rows.Columns(), Kinds: rows.Kinds()}); err != nil {
		return err
	}
	if flush != nil {
		flush()
	}
	n := 0
	for {
		row, err := rows.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := enc.Encode(ndjsonRow{Values: row}); err != nil {
			return err
		}
		if n++; flush != nil && n&63 == 0 {
			flush()
		}
	}
}

// storeLike is what the store catalog needs: the live SegmentStore or
// a pinned StoreView both qualify.
type storeLike interface {
	Resolve(name string) (lake.TableInfo, error)
	ScanWith(name string, opts lake.ScanOptions) (*lake.SegmentScan, error)
}

// storeCatalog adapts the lake's segment store to the engine's Catalog.
type storeCatalog struct {
	s storeLike
}

// StoreCatalog makes the record store queryable. Each table resolves
// against the store's manifest at access time; for a multi-table query
// that must see one consistent store state across commits, pin a view
// first and use ViewCatalog.
func StoreCatalog(s *lake.SegmentStore) Catalog {
	return storeCatalog{s: s}
}

// ViewCatalog makes a pinned store view queryable: every Resolve and
// Scan answers from the view's one manifest snapshot, so joins never
// mix store states. Run opens all of a plan's scans before returning,
// so a query that planned against a view holds every byte it needs —
// a concurrent reindex commit can no longer change (or tear) its
// result. A lake.ErrStaleView from Run means a commit deleted a
// superseded segment in the tiny pin-to-open window; take a fresh view
// and re-plan.
func ViewCatalog(v *lake.StoreView) Catalog {
	return storeCatalog{s: v}
}

func (c storeCatalog) Resolve(name string) (lake.TableInfo, error) {
	return c.s.Resolve(name)
}

func (c storeCatalog) Scan(name string) (BatchScan, error) {
	return c.ScanWith(name, lake.ScanOptions{})
}

// ScanWith implements PushCatalog: the segment scan decodes only the
// pushed columns and skips blocks via zone maps.
func (c storeCatalog) ScanWith(name string, opts lake.ScanOptions) (BatchScan, error) {
	sc, err := c.s.ScanWith(name, opts)
	if err != nil {
		return nil, err // not a typed nil inside the interface
	}
	return sc, nil
}
