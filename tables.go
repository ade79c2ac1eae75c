package datamaran

import (
	"fmt"
	"io"

	"datamaran/internal/relational"
	"datamaran/internal/semtype"
	"datamaran/internal/template"
)

// Table is a relational table produced from an extraction (Figure 7 of
// the paper).
type Table struct {
	// Name names the table; child list tables reference their parent.
	Name string
	// Parent is the referenced parent table name ("" for a root table).
	Parent string
	// Columns lists the column names ("id" and "parent_id" are
	// bookkeeping columns of the normalized form).
	Columns []string
	// Rows holds the string-valued cells.
	Rows [][]string
}

// WriteCSV writes the table as CSV (cells containing commas, quotes or
// newlines are quoted).
func (t *Table) WriteCSV(w io.Writer) error {
	rt := relational.Table{Name: t.Name, Columns: t.Columns, Rows: t.Rows}
	return rt.WriteCSV(w)
}

// TablesOptions selects a relational form of an extraction.
type TablesOptions struct {
	// Denormalized selects the single-table-per-type form: one row per
	// record, list repetitions folded into one cell per column. The
	// default is the normalized form — per record type, a root table
	// plus one child table per list, linked by foreign keys.
	Denormalized bool
	// Typed applies semantic-type post-processing to the denormalized
	// form (implies Denormalized): runs of adjacent fine-grained columns
	// that reassemble into IPs, times, dates, versions, emails or UUIDs
	// are merged into one named column.
	Typed bool
}

// TablesWith returns the extraction's relational tables in the
// requested form.
func (r *Result) TablesWith(opts TablesOptions) []*Table {
	switch {
	case opts.Typed:
		return r.typedTables()
	case opts.Denormalized:
		return r.denormalizedTables()
	default:
		return r.normalizedTables()
	}
}

func (r *Result) normalizedTables() []*Table {
	var out []*Table
	for typeID, s := range r.res.Structures {
		db := relational.Build(s.Template, r.res.Records, typeID, fmt.Sprintf("type%d", typeID))
		for _, t := range db.Tables {
			out = append(out, &Table{Name: t.Name, Parent: t.Parent, Columns: t.Columns, Rows: t.Rows})
		}
	}
	return out
}

func (r *Result) denormalizedTables() []*Table {
	var out []*Table
	for typeID, s := range r.res.Structures {
		t := relational.BuildDenormalized(s.Template, r.res.Records, typeID, fmt.Sprintf("type%d", typeID))
		out = append(out, &Table{Name: t.Name, Columns: t.Columns, Rows: t.Rows})
	}
	return out
}

// typedTables applies semantic-type post-processing to the denormalized
// tables (the type-awareness extension of the paper's §6.3): runs of
// adjacent fine-grained columns that reassemble into IPs, times, dates,
// versions, emails or UUIDs — using the constant template literals
// between them — are merged into one named column.
func (r *Result) typedTables() []*Table {
	out := r.denormalizedTables()
	for typeID, t := range out {
		seps := columnSeparators(r.res.Structures[typeID].Template)
		cols := make([]semtype.Column, len(t.Columns))
		for i, name := range t.Columns {
			cols[i].Name = name
			for _, row := range t.Rows {
				cols[i].Values = append(cols[i].Values, row[i])
			}
		}
		merges := semtype.Detect(cols, seps)
		t.Columns, t.Rows = semtype.Apply(t.Columns, t.Rows, merges)
	}
	return out
}

// columnSeparators extracts the constant literal between each pair of
// adjacent field columns of a template ("" when the columns are not
// joined by a pure literal, e.g. across array boundaries).
func columnSeparators(st *template.Node) []string {
	var seps []string
	pendingLit := ""
	sawField := false
	inArray := 0
	var walk func(n *template.Node)
	walk = func(n *template.Node) {
		switch n.Kind {
		case template.KField:
			if sawField {
				if inArray == 0 {
					seps = append(seps, pendingLit)
				} else {
					seps = append(seps, "")
				}
			}
			sawField = true
			pendingLit = ""
		case template.KLiteral:
			pendingLit += n.Lit
		case template.KStruct:
			for _, c := range n.Children {
				walk(c)
			}
		case template.KArray:
			inArray++
			for _, c := range n.Children {
				walk(c)
			}
			inArray--
			pendingLit = ""
		}
	}
	walk(st)
	return seps
}
