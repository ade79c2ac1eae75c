// Package relational converts parsed records into relational datasets
// (§3.3, Figure 7 of the paper). Two representations are produced:
//
//   - a normalized form: one root table plus one child table per
//     array-type node, linked by foreign-key references, and
//   - a denormalized form: a single table where array repetitions are
//     folded into one cell per column.
package relational

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"datamaran/internal/core"
	"datamaran/internal/template"
)

// Table is a named relation with string-valued cells.
type Table struct {
	Name    string
	Columns []string
	Rows    [][]string
	// Parent names the table this one references via its parent_id
	// column ("" for the root).
	Parent string
}

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return len(t.Rows) }

// Col returns the index of the named column, or -1.
func (t *Table) Col(name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// WriteCSV writes the table in a minimal CSV form (quoting cells that
// contain commas, quotes or newlines).
func (t *Table) WriteCSV(w io.Writer) error {
	if err := WriteCSVRow(w, t.Columns); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := WriteCSVRow(w, r); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSVRow writes one CSV line with the package's quoting rules —
// shared with the query engine's CSV output so table dumps and query
// results quote identically.
func WriteCSVRow(w io.Writer, cells []string) error {
	for i, c := range cells {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if strings.ContainsAny(c, ",\"\n") {
			c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
		if _, err := io.WriteString(w, c); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// Database is a set of tables; Tables[0] is the root.
type Database struct {
	Tables []*Table
}

// Table returns the named table, or nil.
func (d *Database) Table(name string) *Table {
	for _, t := range d.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// schema lays the records of one template out as normalized tables. The
// array with dense DFS index i (parser.ArrayOcc.Arr) owns table i+1; the
// root scope is table 0.
type schema struct {
	st *template.Node
	// tableOf[arrayNode] is the table index for the array's rows.
	tableOf map[*template.Node]int
	// slots[col] is the (table, column) of template field column col.
	slots  [][2]int
	tables []*Table

	// Walk state of the record being added (see addRecord).
	rec    *core.RecordOut
	field  int   // next unconsumed entry of rec.Fields
	arrCur []int // per table: where in rec.Arrays the search for its array's next instance resumes
	rowOf  []int // per table: row currently being filled
}

// buildSchema assigns every field of st a column in the root table or in a
// per-array child table (Figure 7's normalized representation).
func buildSchema(st *template.Node, rootName string) *schema {
	s := &schema{st: st, tableOf: map[*template.Node]int{}}
	root := &Table{Name: rootName, Columns: []string{"id"}}
	s.tables = []*Table{root}
	var walk func(n *template.Node, tableIdx int)
	walk = func(n *template.Node, tableIdx int) {
		switch n.Kind {
		case template.KField:
			t := s.tables[tableIdx]
			col := len(t.Columns)
			t.Columns = append(t.Columns, fmt.Sprintf("f%d", col-s.metaCols(tableIdx)))
			s.slots = append(s.slots, [2]int{tableIdx, col})
		case template.KStruct:
			for _, c := range n.Children {
				walk(c, tableIdx)
			}
		case template.KArray:
			childIdx := len(s.tables)
			child := &Table{
				Name:    fmt.Sprintf("%s_list%d", rootName, childIdx),
				Columns: []string{"id", "parent_id"},
				Parent:  s.tables[tableIdx].Name,
			}
			s.tables = append(s.tables, child)
			s.tableOf[n] = childIdx
			for _, c := range n.Children {
				walk(c, childIdx)
			}
		}
	}
	walk(st, 0)
	s.arrCur = make([]int, len(s.tables))
	s.rowOf = make([]int, len(s.tables))
	return s
}

// metaCols returns the number of leading bookkeeping columns of a table.
func (s *schema) metaCols(tableIdx int) int {
	if tableIdx == 0 {
		return 1 // id
	}
	return 2 // id, parent_id
}

// Build converts the records of type typeID into the normalized relational
// form: each field placeholder becomes a column, each array a child table
// whose rows reference their parent row (Figure 7 left). The records must
// have been extracted with st.
func Build(st *template.Node, records []core.RecordOut, typeID int, rootName string) *Database {
	if rootName == "" {
		rootName = "records"
	}
	s := buildSchema(st, rootName)
	for i := range records {
		if records[i].TypeID == typeID {
			s.addRecord(&records[i])
		}
	}
	return &Database{Tables: s.tables}
}

// addRecord appends one record to the schema's tables by walking the
// template with two cursors into the record: fields are consumed left to
// right, and each array node takes its repetition count from its next
// occurrence in rec.Arrays — exact at any nesting depth, because the
// instances of one array node occur in document order.
func (s *schema) addRecord(rec *core.RecordOut) {
	s.rec, s.field = rec, 0
	for i := range s.arrCur {
		s.arrCur[i] = 0
	}
	s.rowOf[0] = s.newRow(0, -1)
	s.walk(s.st, 0)
}

func (s *schema) newRow(tableIdx, parentRow int) int {
	t := s.tables[tableIdx]
	row := make([]string, len(t.Columns))
	row[0] = strconv.Itoa(len(t.Rows) + 1)
	if tableIdx != 0 {
		row[1] = strconv.Itoa(parentRow + 1)
	}
	t.Rows = append(t.Rows, row)
	return len(t.Rows) - 1
}

func (s *schema) walk(n *template.Node, tableIdx int) {
	switch n.Kind {
	case template.KField:
		f := &s.rec.Fields[s.field]
		s.field++
		slot := s.slots[f.Column]
		s.tables[slot[0]].Rows[s.rowOf[slot[0]]][slot[1]] = f.Value
	case template.KStruct:
		for _, c := range n.Children {
			s.walk(c, tableIdx)
		}
	case template.KArray:
		childIdx := s.tableOf[n]
		i := s.arrCur[childIdx]
		for s.rec.Arrays[i].Arr != childIdx-1 {
			i++
		}
		s.arrCur[childIdx] = i + 1
		for r := 0; r < s.rec.Arrays[i].Reps; r++ {
			s.rowOf[childIdx] = s.newRow(childIdx, s.rowOf[tableIdx])
			for _, c := range n.Children {
				s.walk(c, childIdx)
			}
		}
	}
}

// BuildDenormalized converts the records of type typeID into the
// single-table form (Figure 7 right): one row per record, one column per
// field column of the template; array repetitions are joined with the
// array's separator character.
func BuildDenormalized(st *template.Node, records []core.RecordOut, typeID int, name string) *Table {
	if name == "" {
		name = "records"
	}
	t := &Table{Name: name}
	for i := 0; i < st.NumFields(); i++ {
		t.Columns = append(t.Columns, fmt.Sprintf("f%d", i))
	}
	dn := NewDenormalizer(st)
	for i := range records {
		if records[i].TypeID == typeID {
			t.Rows = append(t.Rows, dn.Row(records[i].Fields, nil))
		}
	}
	return t
}

// Denormalizer turns the records of one template into denormalized rows:
// one cell per template field column, an array's repetitions joined with
// the array's separator. What depends on the template alone — the column
// count, each column's separator — is worked out once, so a row costs
// nothing that does not depend on its record. Not safe for concurrent use.
type Denormalizer struct {
	seps []byte
	// seen[c]: the row being built already holds a value in column c (an
	// empty first value must still be joined to, so the cell cannot say).
	seen []bool
}

// NewDenormalizer returns the denormalizer of st's records.
func NewDenormalizer(st *template.Node) *Denormalizer {
	seps := ArraySeps(st)
	return &Denormalizer{seps: seps, seen: make([]bool, len(seps))}
}

// Row converts one record's fields into its denormalized row. row is
// reused when it has the right length, so a streaming writer allocates no
// row per record; the returned slice is row (or a fresh one).
func (d *Denormalizer) Row(fields []core.FieldValue, row []string) []string {
	cols := len(d.seps)
	if len(row) != cols {
		row = make([]string, cols)
	}
	clear(row)
	clear(d.seen)
	for _, f := range fields {
		if f.Column < 0 || f.Column >= cols {
			continue
		}
		if !d.seen[f.Column] {
			row[f.Column] = f.Value
			d.seen[f.Column] = true
		} else {
			row[f.Column] += string(d.seps[f.Column:f.Column+1]) + f.Value
		}
	}
	return row
}

// ArraySeps maps each field column of st to the separator of its
// enclosing array — the byte a denormalized row joins the column's
// repetitions with (';' outside arrays, unused since such columns never
// join).
func ArraySeps(st *template.Node) []byte {
	seps := make([]byte, 0, st.NumFields())
	var walk func(n *template.Node, sep byte)
	walk = func(n *template.Node, sep byte) {
		switch n.Kind {
		case template.KField:
			seps = append(seps, sep)
		case template.KStruct:
			for _, c := range n.Children {
				walk(c, sep)
			}
		case template.KArray:
			for _, c := range n.Children {
				walk(c, n.Sep)
			}
		}
	}
	walk(st, ';')
	return seps
}
