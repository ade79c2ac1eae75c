// Package query is a streaming relational query engine over the lake's
// columnar record store: selection, projection, equi-join, group-by,
// sort and top-k as composable pull-based operators, with cost-based
// greedy join ordering (stored row counts × predicate selectivities from
// per-column distinct estimates, natural-join paths through shared
// columns, early termination on empty intermediates). Against a
// pushdown-capable catalog (see PushCatalog) the planner pushes each
// table's needed columns and single-table literal predicates into the
// scan itself.
//
// Execution is block-at-a-time. What an operator's Next returns is a
// batch (ops.go): the rows of at most one store block as column
// vectors — the store's own, re-referenced, never copied or widened —
// plus a selection vector naming the live rows. A filter narrows the
// selection, a projection re-references columns, group and join keys
// hash the cell bytes in place, sort and top-k parse a numeric key once
// per cell. The memory contract is one sentence: a batch is valid until
// the operator that returned it is asked for the next, and whatever
// must outlive it (a join's build side, heap entries, group keys, the
// rows handed to the caller) is copied out, column-wise, so no kept
// cell keeps a block alive. Rows, the public cursor, carves rows from
// each output batch; every Catalog's scan hands the engine the store's
// own lake.Batch. Allocations therefore follow blocks decoded and rows
// kept, not rows seen, and cancellation is polled once per batch by
// every scan and every blocking operator.
//
// Queries are written in a minimal SELECT-like text form:
//
//	SELECT j.f1, count(*) FROM 42f99400 AS j, 570eebfb AS m
//	WHERE j.f3 = 'DONE' AND j.f1 = m.f2
//	GROUP BY j.f1 ORDER BY count(*) DESC LIMIT 10
//
// Tables are format fingerprints (unique prefixes accepted, "_<k>"
// suffix for record types beyond the first); columns are the
// denormalized f0..fN. Quoted strings and numbers are literals;
// everything else is a column reference.
package query

import (
	"fmt"
	"strconv"
	"strings"

	"datamaran/internal/lake"
)

// ColRef names a column, optionally qualified by a FROM alias.
type ColRef struct {
	Table string // alias ("" when unqualified)
	Col   string
}

// String renders the reference as written.
func (c ColRef) String() string {
	if c.Table == "" {
		return c.Col
	}
	return c.Table + "." + c.Col
}

// SelectExpr is one output expression: a column, or an aggregate over a
// column (or over * for count).
type SelectExpr struct {
	// Agg is "" for a plain column, else count/sum/avg/min/max.
	Agg string
	// Star marks count(*).
	Star bool
	// Col is the referenced column (unused for count(*)).
	Col ColRef
}

// String renders the expression as written — the output column name.
func (e SelectExpr) String() string {
	if e.Agg == "" {
		return e.Col.String()
	}
	if e.Star {
		return e.Agg + "(*)"
	}
	return e.Agg + "(" + e.Col.String() + ")"
}

// FromItem is one table of the FROM list.
type FromItem struct {
	Table string // table name as written (fingerprint or prefix)
	Alias string // alias; defaults to Table
}

// Predicate is one WHERE conjunct: ref op literal, or ref = ref (the
// join form; non-equality ref-ref comparisons are filters).
type Predicate struct {
	Left  ColRef
	Op    string // = != < <= > >=
	IsLit bool
	Lit   string // literal right side when IsLit
	Right ColRef // column right side otherwise
}

// String renders the predicate as written.
func (p Predicate) String() string {
	rhs := p.Right.String()
	if p.IsLit {
		rhs = "'" + p.Lit + "'"
	}
	return p.Left.String() + " " + p.Op + " " + rhs
}

// OrderKey is one ORDER BY key, named by output column.
type OrderKey struct {
	Expr SelectExpr
	Desc bool
}

// Query is the parsed form.
type Query struct {
	// Star marks SELECT * (Select empty).
	Star bool
	// Select lists the output expressions.
	Select []SelectExpr
	// From lists the tables (cross product before predicates).
	From []FromItem
	// Where lists the conjuncts.
	Where []Predicate
	// GroupBy lists the grouping columns.
	GroupBy []ColRef
	// OrderBy lists the sort keys.
	OrderBy []OrderKey
	// Limit caps the row count (-1: none).
	Limit int
}

var aggs = map[string]bool{"count": true, "sum": true, "avg": true, "min": true, "max": true}

// tokenizer

type token struct {
	kind string // ident, number, string, punct, end
	text string
}

type lexer struct {
	in  string
	pos int
	tok token
}

func (l *lexer) next() error {
	for l.pos < len(l.in) && (l.in[l.pos] == ' ' || l.in[l.pos] == '\t' || l.in[l.pos] == '\n' || l.in[l.pos] == '\r') {
		l.pos++
	}
	if l.pos >= len(l.in) {
		l.tok = token{kind: "end"}
		return nil
	}
	c := l.in[l.pos]
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.in) && isIdentPart(l.in[l.pos]) {
			l.pos++
		}
		l.tok = token{kind: "ident", text: l.in[start:l.pos]}
	case c >= '0' && c <= '9' || c == '-' && l.pos+1 < len(l.in) && l.in[l.pos+1] >= '0' && l.in[l.pos+1] <= '9':
		// Digit-led tokens absorb trailing letters too: table names are
		// hex fingerprints, which may start with a digit (42f99400…).
		// A purely numeric token (with optional fraction) is a number;
		// anything else digit-led is an identifier.
		start := l.pos
		l.pos++
		digitsOnly := true
		for l.pos < len(l.in) && isIdentPart(l.in[l.pos]) {
			if l.in[l.pos] < '0' || l.in[l.pos] > '9' {
				digitsOnly = false
			}
			l.pos++
		}
		if digitsOnly && l.pos+1 < len(l.in) && l.in[l.pos] == '.' &&
			l.in[l.pos+1] >= '0' && l.in[l.pos+1] <= '9' {
			l.pos += 2
			for l.pos < len(l.in) && l.in[l.pos] >= '0' && l.in[l.pos] <= '9' {
				l.pos++
			}
		}
		kind := "number"
		if !digitsOnly {
			kind = "ident"
		}
		l.tok = token{kind: kind, text: l.in[start:l.pos]}
	case c == '\'' || c == '"':
		quote := c
		l.pos++
		var b strings.Builder
		for {
			if l.pos >= len(l.in) {
				return fmt.Errorf("query: unterminated string at offset %d", l.pos)
			}
			if l.in[l.pos] == quote {
				if l.pos+1 < len(l.in) && l.in[l.pos+1] == quote {
					b.WriteByte(quote) // doubled quote escapes itself
					l.pos += 2
					continue
				}
				l.pos++
				break
			}
			b.WriteByte(l.in[l.pos])
			l.pos++
		}
		l.tok = token{kind: "string", text: b.String()}
	case c == '<' || c == '>':
		op := string(c)
		l.pos++
		if l.pos < len(l.in) && l.in[l.pos] == '=' {
			op += "="
			l.pos++
		}
		l.tok = token{kind: "punct", text: op}
	case c == '!':
		if l.pos+1 >= len(l.in) || l.in[l.pos+1] != '=' {
			return fmt.Errorf("query: stray '!' at offset %d", l.pos)
		}
		l.pos += 2
		l.tok = token{kind: "punct", text: "!="}
	case c == '=' || c == ',' || c == '(' || c == ')' || c == '*' || c == '.':
		l.pos++
		l.tok = token{kind: "punct", text: string(c)}
	default:
		return fmt.Errorf("query: unexpected character %q at offset %d", c, l.pos)
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

// keyword reports whether the current token is the given keyword
// (case-insensitive identifier).
func (l *lexer) keyword(kw string) bool {
	return l.tok.kind == "ident" && strings.EqualFold(l.tok.text, kw)
}

// parser

type parser struct {
	lex *lexer
}

func (p *parser) advance() error { return p.lex.next() }

func (p *parser) expectKeyword(kw string) error {
	if !p.lex.keyword(kw) {
		return fmt.Errorf("query: expected %s, got %q", strings.ToUpper(kw), p.lex.tok.text)
	}
	return p.advance()
}

func (p *parser) expectPunct(text string) error {
	if p.lex.tok.kind != "punct" || p.lex.tok.text != text {
		return fmt.Errorf("query: expected %q, got %q", text, p.lex.tok.text)
	}
	return p.advance()
}

// Parse parses the SELECT-like text form.
func Parse(text string) (*Query, error) {
	p := &parser{lex: &lexer{in: text}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	q := &Query{Limit: -1}
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	if p.lex.tok.kind == "punct" && p.lex.tok.text == "*" {
		q.Star = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else {
		for {
			e, err := p.selectExpr()
			if err != nil {
				return nil, err
			}
			q.Select = append(q.Select, e)
			if p.lex.tok.kind == "punct" && p.lex.tok.text == "," {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	for {
		item, err := p.fromItem()
		if err != nil {
			return nil, err
		}
		q.From = append(q.From, item)
		if p.lex.tok.kind == "punct" && p.lex.tok.text == "," {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if p.lex.keyword("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			pred, err := p.predicate()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, pred)
			if p.lex.keyword("and") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if p.lex.keyword("group") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			ref, err := p.colRef()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, ref)
			if p.lex.tok.kind == "punct" && p.lex.tok.text == "," {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if p.lex.keyword("order") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			key, err := p.orderKey()
			if err != nil {
				return nil, err
			}
			q.OrderBy = append(q.OrderBy, key)
			if p.lex.tok.kind == "punct" && p.lex.tok.text == "," {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if p.lex.keyword("limit") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.lex.tok.kind != "number" {
			return nil, fmt.Errorf("query: LIMIT needs a number, got %q", p.lex.tok.text)
		}
		n, err := strconv.Atoi(p.lex.tok.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("query: bad LIMIT %q", p.lex.tok.text)
		}
		q.Limit = n
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.lex.tok.kind != "end" {
		return nil, fmt.Errorf("query: trailing input at %q", p.lex.tok.text)
	}
	if err := validate(q); err != nil {
		return nil, err
	}
	return q, nil
}

// selectExpr parses `agg(ref|*)` or `ref`.
func (p *parser) selectExpr() (SelectExpr, error) {
	if p.lex.tok.kind == "ident" && aggs[strings.ToLower(p.lex.tok.text)] {
		agg := strings.ToLower(p.lex.tok.text)
		save := *p.lex
		if err := p.advance(); err != nil {
			return SelectExpr{}, err
		}
		if p.lex.tok.kind == "punct" && p.lex.tok.text == "(" {
			if err := p.advance(); err != nil {
				return SelectExpr{}, err
			}
			e := SelectExpr{Agg: agg}
			if p.lex.tok.kind == "punct" && p.lex.tok.text == "*" {
				if agg != "count" {
					return SelectExpr{}, fmt.Errorf("query: %s(*) is not a thing; only count(*)", agg)
				}
				e.Star = true
				if err := p.advance(); err != nil {
					return SelectExpr{}, err
				}
			} else {
				ref, err := p.colRef()
				if err != nil {
					return SelectExpr{}, err
				}
				e.Col = ref
			}
			if err := p.expectPunct(")"); err != nil {
				return SelectExpr{}, err
			}
			return e, nil
		}
		// An aggregate name not followed by "(" is a plain identifier
		// (e.g. a table aliased "count"): rewind.
		*p.lex = save
	}
	ref, err := p.colRef()
	if err != nil {
		return SelectExpr{}, err
	}
	return SelectExpr{Col: ref}, nil
}

// colRef parses `ident` or `ident.ident`.
func (p *parser) colRef() (ColRef, error) {
	if p.lex.tok.kind != "ident" {
		return ColRef{}, fmt.Errorf("query: expected column, got %q", p.lex.tok.text)
	}
	first := p.lex.tok.text
	if err := p.advance(); err != nil {
		return ColRef{}, err
	}
	if p.lex.tok.kind == "punct" && p.lex.tok.text == "." {
		if err := p.advance(); err != nil {
			return ColRef{}, err
		}
		if p.lex.tok.kind != "ident" {
			return ColRef{}, fmt.Errorf("query: expected column after %q., got %q", first, p.lex.tok.text)
		}
		ref := ColRef{Table: first, Col: p.lex.tok.text}
		return ref, p.advance()
	}
	return ColRef{Col: first}, nil
}

// fromItem parses `table [AS] [alias]`. Table names may be identifiers
// or start with a digit (fingerprints are hex), so numbers are accepted
// too.
func (p *parser) fromItem() (FromItem, error) {
	if p.lex.tok.kind != "ident" && p.lex.tok.kind != "number" {
		return FromItem{}, fmt.Errorf("query: expected table name, got %q", p.lex.tok.text)
	}
	item := FromItem{Table: p.lex.tok.text}
	if err := p.advance(); err != nil {
		return FromItem{}, err
	}
	if p.lex.keyword("as") {
		if err := p.advance(); err != nil {
			return FromItem{}, err
		}
		if p.lex.tok.kind != "ident" {
			return FromItem{}, fmt.Errorf("query: expected alias after AS, got %q", p.lex.tok.text)
		}
		item.Alias = p.lex.tok.text
		return item, p.advance()
	}
	// Bare alias (no AS) — but not a keyword that ends the FROM list.
	if p.lex.tok.kind == "ident" && !p.lex.keyword("where") && !p.lex.keyword("group") &&
		!p.lex.keyword("order") && !p.lex.keyword("limit") {
		item.Alias = p.lex.tok.text
		return item, p.advance()
	}
	item.Alias = item.Table
	return item, nil
}

// predicate parses `ref op (literal | ref)`.
func (p *parser) predicate() (Predicate, error) {
	left, err := p.colRef()
	if err != nil {
		return Predicate{}, err
	}
	if p.lex.tok.kind != "punct" {
		return Predicate{}, fmt.Errorf("query: expected comparison after %s, got %q", left, p.lex.tok.text)
	}
	op := p.lex.tok.text
	switch op {
	case "=", "!=", "<", "<=", ">", ">=":
	default:
		return Predicate{}, fmt.Errorf("query: unsupported operator %q", op)
	}
	if err := p.advance(); err != nil {
		return Predicate{}, err
	}
	pred := Predicate{Left: left, Op: op}
	switch p.lex.tok.kind {
	case "string", "number":
		pred.IsLit = true
		pred.Lit = p.lex.tok.text
		return pred, p.advance()
	case "ident":
		right, err := p.colRef()
		if err != nil {
			return Predicate{}, err
		}
		pred.Right = right
		return pred, nil
	}
	return Predicate{}, fmt.Errorf("query: expected literal or column after %s %s, got %q", left, op, p.lex.tok.text)
}

// orderKey parses `expr [ASC|DESC]`.
func (p *parser) orderKey() (OrderKey, error) {
	e, err := p.selectExpr()
	if err != nil {
		return OrderKey{}, err
	}
	key := OrderKey{Expr: e}
	if p.lex.keyword("desc") {
		key.Desc = true
		return key, p.advance()
	}
	if p.lex.keyword("asc") {
		return key, p.advance()
	}
	return key, nil
}

// validate applies the structural rules that do not need a catalog.
func validate(q *Query) error {
	hasAgg := false
	for _, e := range q.Select {
		if e.Agg != "" {
			hasAgg = true
		}
	}
	if hasAgg || len(q.GroupBy) > 0 {
		if q.Star {
			return fmt.Errorf("query: SELECT * cannot be combined with GROUP BY or aggregates")
		}
		// Every non-aggregate output must be a grouping column.
		for _, e := range q.Select {
			if e.Agg != "" {
				continue
			}
			found := false
			for _, g := range q.GroupBy {
				if g == e.Col {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("query: column %s must appear in GROUP BY or inside an aggregate", e.Col)
			}
		}
	}
	seen := map[string]bool{}
	for _, f := range q.From {
		if seen[f.Alias] {
			return fmt.Errorf("query: duplicate table alias %q", f.Alias)
		}
		seen[f.Alias] = true
	}
	return nil
}

// BatchScan is an open scan of one table: the record store's
// lake.SegmentScan, or a test's in-memory table. NextBatch returns
// the next batch (full table width, valid until the next call), or
// io.EOF after the last; BlockStats reports blocks decoded and pruned
// and rows consumed, and survives Close.
type BatchScan interface {
	NextBatch() (*lake.Batch, error)
	BlockStats() (decoded, pruned, rows int)
	Close() error
}

// Catalog resolves and scans tables — the record store in production,
// in-memory tables in tests.
type Catalog interface {
	// Resolve maps a written table name (possibly a unique prefix) to
	// its metadata: the planner reads Name, Columns, Kinds, Rows and
	// Distincts.
	Resolve(name string) (lake.TableInfo, error)
	// Scan opens a scan of every column and row of the resolved table
	// name.
	Scan(name string) (BatchScan, error)
}

// PushCatalog is the optional pushdown-capable catalog: a catalog that
// also implements ScanWith receives each table's needed-column set
// and single-table literal predicates inside the scan (the record
// store decodes only the pushed columns and skips blocks via zone
// maps). The planner type-asserts; plain Catalogs keep the
// filter-above-scan path, byte-identical results either way.
type PushCatalog interface {
	Catalog
	// ScanWith opens a scan with the pushdown applied: only rows
	// passing every pushed predicate, at full table width.
	ScanWith(name string, opts lake.ScanOptions) (BatchScan, error)
}

// noPushdown embeds only the Catalog interface, so the planner's
// PushCatalog assertion fails even when the wrapped catalog supports
// pushdown.
type noPushdown struct{ Catalog }

// NoPushdown strips a catalog's pushdown capability: every scan
// decodes full rows and predicates run above the scan — the reference
// path the pushdown benchmarks and property tests compare against.
func NoPushdown(cat Catalog) Catalog { return noPushdown{cat} }
