package query

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"datamaran/internal/lake"
	"datamaran/internal/semtype"
)

// The planner. Plans are trees of batch operators (ops.go) over a "wide
// row" layout: one column slot per column of every FROM table (block
// per table, in FROM order), so predicate and projection offsets are
// stable no matter which join order the planner picks. Scans fill their
// table's block of slots; hash joins add the build table's.
//
// Comparison semantics: equality is exact string match (hash-join
// compatible); ordering operators compare numerically when the column's
// kind is numeric and both values parse, lexicographically otherwise.

// Rows is an open query result stream: a row cursor over the plan's
// output batches.
type Rows struct {
	columns []string
	kinds   []semtype.Kind
	it      iter
	scans   []*scanOp // base-table scans, for Stats()

	// The current output batch as rows: one slab, handed out a row at a
	// time.
	slab []string
	left int
	tmp  []string
}

// Columns returns the output column names (the SELECT list as
// written).
func (r *Rows) Columns() []string { return r.columns }

// Kinds returns the output columns' scalar kinds.
func (r *Rows) Kinds() []semtype.Kind { return r.kinds }

// Next returns the next result row, or io.EOF after the last. The row
// and its cells are the caller's to keep: rows are carved from one slab
// per batch, and cells that would otherwise keep a mostly-dropped block
// alive (the batch lost rows to a filter, a join or a limit above the
// scan) are cloned.
func (r *Rows) Next() ([]string, error) {
	w := len(r.columns)
	if r.left == 0 {
		b, err := r.it.Next()
		if err != nil {
			return nil, err
		}
		r.left = len(b.sel)
		r.slab = make([]string, r.left*w)
		for c, col := range b.cols[:w] {
			switch {
			case col == nil:
			case b.tight:
				for i, j := range b.sel {
					r.slab[i*w+c] = col[j]
				}
			default:
				r.tmp = appendCloned(r.tmp[:0], col, b.sel)
				for i, cell := range r.tmp {
					r.slab[i*w+c] = cell
				}
			}
		}
	}
	r.left--
	row := r.slab[:w:w]
	r.slab = r.slab[w:]
	return row, nil
}

// Close releases the underlying scans.
func (r *Rows) Close() error { return r.it.Close() }

// plannedTable is one FROM table with its selectivity signals.
type plannedTable struct {
	item   FromItem
	meta   lake.TableInfo
	offset int // block start in the wide row
	// eqLit and otherLit count the table's literal predicates — the
	// tie-breaking signal when cardinality estimates collide.
	eqLit, otherLit int
}

// compiledPred is a resolved predicate: absolute wide-row offsets plus
// comparison semantics.
type compiledPred struct {
	src     Predicate
	lOff    int
	isLit   bool
	lit     string
	rOff    int
	op      string
	numeric bool
	litKey  numKey // the literal parsed once, for ordering operators
	lTab    int
	rTab    int // -1 for literals
	applied bool
}

type planner struct {
	ctx    context.Context
	cat    Catalog
	push   PushCatalog // non-nil when cat supports scan pushdown
	q      *Query
	tables []plannedTable
	width  int
	preds  []compiledPred
	need   [][]bool    // per table, per column: referenced by the query
	mode   ExplainMode // ExplainAnalyze wraps operators with recorders
	scans  []*scanOp   // every base-table scan opened by this plan
}

// Run plans q against the catalog and opens its result stream. The
// stream is pull-based and batch-at-a-time — hash-join build sides,
// group-by and order-by materialize only what they must — and ctx
// cancels it between batches.
func Run(ctx context.Context, cat Catalog, q *Query) (*Rows, error) {
	return RunWith(ctx, cat, q, Options{})
}

// compilePred resolves one predicate's references.
func (pl *planner) compilePred(p Predicate) (compiledPred, error) {
	lt, lc, err := pl.resolveRef(p.Left)
	if err != nil {
		return compiledPred{}, err
	}
	cp := compiledPred{
		src:  p,
		lOff: pl.tables[lt].offset + lc,
		op:   p.Op,
		lTab: lt,
		rTab: -1,
	}
	lKind := pl.tables[lt].meta.Kinds[lc]
	if p.IsLit {
		cp.isLit = true
		cp.lit = p.Lit
		cp.numeric = lKind.Numeric()
		cp.litKey = parseKey(p.Lit, cp.numeric)
		return cp, nil
	}
	rt, rc, err := pl.resolveRef(p.Right)
	if err != nil {
		return compiledPred{}, err
	}
	cp.rOff = pl.tables[rt].offset + rc
	cp.rTab = rt
	cp.numeric = lKind.Numeric() && pl.tables[rt].meta.Kinds[rc].Numeric()
	return cp, nil
}

// resolveRef maps a column reference to (table index, column index).
// Unqualified names must be unique across the FROM tables.
func (pl *planner) resolveRef(ref ColRef) (int, int, error) {
	ti := -1
	if ref.Table != "" {
		for i := range pl.tables {
			if pl.tables[i].item.Alias == ref.Table {
				ti = i
				break
			}
		}
		if ti < 0 {
			return 0, 0, fmt.Errorf("query: unknown table alias %q in %s", ref.Table, ref)
		}
		for ci, name := range pl.tables[ti].meta.Columns {
			if name == ref.Col {
				return ti, ci, nil
			}
		}
		return 0, 0, fmt.Errorf("query: table %s has no column %q (columns: %s)",
			pl.tables[ti].item.Alias, ref.Col, strings.Join(pl.tables[ti].meta.Columns, ", "))
	}
	found := -1
	foundCol := -1
	for i := range pl.tables {
		for ci, name := range pl.tables[i].meta.Columns {
			if name == ref.Col {
				if found >= 0 {
					return 0, 0, fmt.Errorf("query: column %q is ambiguous (in %s and %s) — qualify it",
						ref.Col, pl.tables[found].item.Alias, pl.tables[i].item.Alias)
				}
				found, foundCol = i, ci
			}
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("query: no table has column %q", ref.Col)
	}
	return found, foundCol, nil
}

// computeNeeded marks, per table, every column the query references —
// select outputs, grouping keys, predicate sides, join keys (ORDER BY
// names output columns, so it adds nothing). Unmarked columns are
// never decoded by a pushed scan.
func (pl *planner) computeNeeded() error {
	pl.need = make([][]bool, len(pl.tables))
	for i := range pl.tables {
		pl.need[i] = make([]bool, len(pl.tables[i].meta.Columns))
	}
	q := pl.q
	if q.Star {
		for i := range pl.need {
			for c := range pl.need[i] {
				pl.need[i][c] = true
			}
		}
	}
	mark := func(ref ColRef) error {
		ti, ci, err := pl.resolveRef(ref)
		if err != nil {
			return err
		}
		pl.need[ti][ci] = true
		return nil
	}
	for _, e := range q.Select {
		if e.Star { // count(*)
			continue
		}
		if err := mark(e.Col); err != nil {
			return err
		}
	}
	for _, ref := range q.GroupBy {
		if err := mark(ref); err != nil {
			return err
		}
	}
	for i := range pl.preds {
		cp := &pl.preds[i]
		pl.need[cp.lTab][cp.lOff-pl.tables[cp.lTab].offset] = true
		if cp.rTab >= 0 {
			pl.need[cp.rTab][cp.rOff-pl.tables[cp.rTab].offset] = true
		}
	}
	return nil
}

// defaultEqSelectivity applies to an equality literal when the store
// recorded no distinct estimate for the column.
const defaultEqSelectivity = 0.1

// card estimates a table's post-filter cardinality: the stored row
// count times each literal predicate's selectivity — 1/distinct for an
// equality when the catalog carries a distinct estimate, a coarse
// default otherwise, 1/3 for range comparisons, and near-1 for !=.
func (pl *planner) card(ti int) float64 {
	t := &pl.tables[ti]
	card := float64(t.meta.Rows)
	if card < 1 {
		card = 1
	}
	for i := range pl.preds {
		cp := &pl.preds[i]
		if !cp.isLit || cp.lTab != ti {
			continue
		}
		sel := 0.9 // !=
		switch cp.op {
		case "=":
			sel = defaultEqSelectivity
			if ci := cp.lOff - t.offset; ci < len(t.meta.Distincts) && t.meta.Distincts[ci] > 0 {
				sel = 1 / float64(t.meta.Distincts[ci])
			}
		case "<", "<=", ">", ">=":
			sel = 1.0 / 3
		}
		card *= sel
	}
	return card
}

// greedyOrder picks the join order by estimated cardinality: start at
// the table with the smallest post-filter estimate (stored row counts
// times predicate selectivities; literal-predicate counts and FROM
// order break ties, so plans stay deterministic when statistics are
// absent or equal), and repeatedly extend along join-connected tables,
// preferring more connections and then smaller estimates. Disconnected
// tables join last as cross products.
func (pl *planner) greedyOrder() []int {
	n := len(pl.tables)
	order := make([]int, 0, n)
	used := make([]bool, n)
	cards := make([]float64, n)
	for i := range cards {
		cards[i] = pl.card(i)
	}
	better := func(a, b int) bool { // a strictly cheaper than b
		if cards[a] != cards[b] {
			return cards[a] < cards[b]
		}
		ta, tb := &pl.tables[a], &pl.tables[b]
		if ta.eqLit != tb.eqLit {
			return ta.eqLit > tb.eqLit
		}
		if ta.otherLit != tb.otherLit {
			return ta.otherLit > tb.otherLit
		}
		return a < b // FROM order
	}
	first := 0
	for i := 1; i < n; i++ {
		if better(i, first) {
			first = i
		}
	}
	order = append(order, first)
	used[first] = true
	inSet := func(t int) bool { return t >= 0 && used[t] }
	for len(order) < n {
		best, bestConn := -1, -1
		for cand := 0; cand < n; cand++ {
			if used[cand] {
				continue
			}
			conn := 0
			for _, cp := range pl.preds {
				if cp.op != "=" || cp.isLit {
					continue
				}
				if (cp.lTab == cand && inSet(cp.rTab)) || (cp.rTab == cand && inSet(cp.lTab)) {
					conn++
				}
			}
			if best < 0 || conn > bestConn || (conn == bestConn && better(cand, best)) {
				best, bestConn = cand, conn
			}
		}
		order = append(order, best)
		used[best] = true
	}
	return order
}

// buildJoinTree assembles scans and hash joins along the chosen order,
// applying each predicate at the earliest point all its tables are
// present. The returned PlanNode mirrors the iterator tree for
// EXPLAIN.
func (pl *planner) buildJoinTree(order []int) (iter, *PlanNode, error) {
	joined := make([]bool, len(pl.tables))
	covered := func(cp *compiledPred) bool {
		return joined[cp.lTab] && (cp.rTab < 0 || joined[cp.rTab])
	}
	takePreds := func() []*compiledPred {
		var out []*compiledPred
		for i := range pl.preds {
			if !pl.preds[i].applied && covered(&pl.preds[i]) {
				pl.preds[i].applied = true
				out = append(out, &pl.preds[i])
			}
		}
		return out
	}

	joined[order[0]] = true
	cur, node, err := pl.scan(order[0])
	if err != nil {
		return nil, nil, err
	}
	if preds := takePreds(); len(preds) > 0 {
		node = &PlanNode{op: "filter", detail: predsDetail(preds), children: []*PlanNode{node}}
		cur = pl.attach(&filterOp{src: cur, preds: preds}, node)
	}
	for _, next := range order[1:] {
		// Equality predicates connecting next to the joined set become
		// the composite hash key; everything else newly covered is a
		// residual filter on the join output.
		var keys []*compiledPred
		for i := range pl.preds {
			cp := &pl.preds[i]
			if cp.applied || cp.op != "=" || cp.isLit || cp.rTab < 0 {
				continue
			}
			if (cp.lTab == next && joined[cp.rTab]) || (cp.rTab == next && joined[cp.lTab]) {
				cp.applied = true
				keys = append(keys, cp)
			}
		}
		joined[next] = true
		build, bnode, err := pl.scan(next)
		if err != nil {
			cur.Close()
			return nil, nil, err
		}
		// Single-table predicates on the build side filter before the
		// hash table is built.
		var buildPreds []*compiledPred
		var residual []*compiledPred
		for _, cp := range takePreds() {
			if cp.lTab == next && (cp.rTab < 0 || cp.rTab == next) {
				buildPreds = append(buildPreds, cp)
			} else {
				residual = append(residual, cp)
			}
		}
		if len(buildPreds) > 0 {
			bnode = &PlanNode{op: "filter", detail: predsDetail(buildPreds), children: []*PlanNode{bnode}}
			build = pl.attach(&filterOp{src: build, preds: buildPreds}, bnode)
		}
		var probeOffs, buildOffs []int
		for _, k := range keys {
			if k.lTab == next {
				buildOffs = append(buildOffs, k.lOff)
				probeOffs = append(probeOffs, k.rOff)
			} else {
				buildOffs = append(buildOffs, k.rOff)
				probeOffs = append(probeOffs, k.lOff)
			}
		}
		jnode := &PlanNode{op: "cross join", children: []*PlanNode{node, bnode}}
		if len(keys) > 0 {
			jnode.op = "hash join"
			jnode.detail = "on " + predsDetail(keys)
		}
		cur = pl.attach(&hashJoinOp{
			ctx:       pl.ctx,
			probe:     cur,
			build:     build,
			probeOffs: probeOffs,
			buildOffs: buildOffs,
			buildLo:   pl.tables[next].offset,
			buildHi:   pl.tables[next].offset + len(pl.tables[next].meta.Columns),
			out:       batch{cols: make([][]string, pl.width)},
		}, jnode)
		node = jnode
		if len(residual) > 0 {
			node = &PlanNode{op: "filter", detail: predsDetail(residual), children: []*PlanNode{node}}
			cur = pl.attach(&filterOp{src: cur, preds: residual}, node)
		}
	}
	return cur, node, nil
}

// scan opens one table's scan, placed in the plan's column layout, with
// a cancellation check per batch. Against a pushdown-capable catalog it
// hands the scan the query's needed columns for the table plus its
// single-table literal predicates, marking those predicates applied so
// no filter re-evaluates them above the scan.
func (pl *planner) scan(ti int) (iter, *PlanNode, error) {
	t := &pl.tables[ti]
	detail := "table=" + t.meta.Name
	if t.item.Alias != t.meta.Name {
		detail += " alias=" + t.item.Alias
	}
	var src BatchScan
	var err error
	if pl.push != nil {
		opts := lake.ScanOptions{Columns: make([]int, 0, len(t.meta.Columns))}
		var cols []string
		for c, ok := range pl.need[ti] {
			if ok {
				opts.Columns = append(opts.Columns, c)
				cols = append(cols, t.meta.Columns[c])
			}
		}
		detail += " columns=" + strings.Join(cols, ",")
		var pushed []*compiledPred
		for i := range pl.preds {
			cp := &pl.preds[i]
			if cp.applied || !cp.isLit || cp.lTab != ti {
				continue
			}
			opts.Preds = append(opts.Preds, lake.ScanPred{
				Col: cp.lOff - t.offset, Op: cp.op, Lit: cp.lit, Numeric: cp.numeric,
			})
			cp.applied = true
			pushed = append(pushed, cp)
		}
		if len(pushed) > 0 {
			detail += " push=(" + predsDetail(pushed) + ")"
		}
		src, err = pl.push.ScanWith(t.meta.Name, opts)
	} else {
		detail += " columns=*"
		src, err = pl.cat.Scan(t.meta.Name)
	}
	if err != nil {
		return nil, nil, err
	}
	si := &scanOp{
		ctx:    pl.ctx,
		src:    src,
		offset: t.offset,
		out:    batch{cols: make([][]string, pl.width), tight: true},
	}
	pl.scans = append(pl.scans, si)
	node := &PlanNode{op: "scan", detail: detail, scan: si}
	return pl.attach(si, node), node, nil
}

// buildHead attaches projection/aggregation, ordering and limit,
// extending the plan tree above child.
func (pl *planner) buildHead(it iter, node *PlanNode) (*Rows, *PlanNode, error) {
	q := pl.q
	hasAgg := false
	for _, e := range q.Select {
		if e.Agg != "" {
			hasAgg = true
		}
	}

	var columns []string
	var kinds []semtype.Kind
	if hasAgg || len(q.GroupBy) > 0 {
		g := &groupOp{ctx: pl.ctx, src: it}
		for _, ref := range q.GroupBy {
			ti, ci, err := pl.resolveRef(ref)
			if err != nil {
				it.Close()
				return nil, nil, err
			}
			g.groupOffs = append(g.groupOffs, pl.tables[ti].offset+ci)
		}
		for _, e := range q.Select {
			columns = append(columns, e.String())
			if e.Agg == "" {
				// Validated: a grouping column. Locate its key slot.
				ti, ci, err := pl.resolveRef(e.Col)
				if err != nil {
					it.Close()
					return nil, nil, err
				}
				off := pl.tables[ti].offset + ci
				slot := -1
				for k, goff := range g.groupOffs {
					if goff == off {
						slot = k
					}
				}
				if slot < 0 {
					it.Close()
					return nil, nil, fmt.Errorf("query: column %s must appear in GROUP BY", e.Col)
				}
				g.outs = append(g.outs, groupOut{slot: slot})
				kinds = append(kinds, pl.tables[ti].meta.Kinds[ci])
				continue
			}
			spec := aggSpec{agg: e.Agg, off: -1}
			kind := semtype.KindInt // count
			if !e.Star {
				ti, ci, err := pl.resolveRef(e.Col)
				if err != nil {
					it.Close()
					return nil, nil, err
				}
				spec.off = pl.tables[ti].offset + ci
				colKind := pl.tables[ti].meta.Kinds[ci]
				spec.numeric = colKind.Numeric()
				spec.isInt = colKind == semtype.KindInt
				switch e.Agg {
				case "count":
					kind = semtype.KindInt
				case "sum":
					kind = colKind
					if !colKind.Numeric() {
						it.Close()
						return nil, nil, fmt.Errorf("query: sum(%s) needs a numeric column (kind %s)", e.Col, colKind)
					}
				case "avg":
					kind = semtype.KindFloat
					if !colKind.Numeric() {
						it.Close()
						return nil, nil, fmt.Errorf("query: avg(%s) needs a numeric column (kind %s)", e.Col, colKind)
					}
				case "min", "max":
					kind = colKind
				}
			}
			g.outs = append(g.outs, groupOut{isAgg: true, slot: len(g.aggs)})
			g.aggs = append(g.aggs, aggAcc{aggSpec: spec})
			kinds = append(kinds, kind)
		}
		node = &PlanNode{op: "group", detail: groupDetail(q), children: []*PlanNode{node}}
		it = pl.attach(g, node)
	} else {
		var offs []int
		if q.Star {
			multi := len(pl.tables) > 1
			for i := range pl.tables {
				for ci, name := range pl.tables[i].meta.Columns {
					if multi {
						columns = append(columns, pl.tables[i].item.Alias+"."+name)
					} else {
						columns = append(columns, name)
					}
					kinds = append(kinds, pl.tables[i].meta.Kinds[ci])
					offs = append(offs, pl.tables[i].offset+ci)
				}
			}
		} else {
			for _, e := range q.Select {
				ti, ci, err := pl.resolveRef(e.Col)
				if err != nil {
					it.Close()
					return nil, nil, err
				}
				columns = append(columns, e.String())
				kinds = append(kinds, pl.tables[ti].meta.Kinds[ci])
				offs = append(offs, pl.tables[ti].offset+ci)
			}
		}
		node = &PlanNode{op: "project", detail: strings.Join(columns, ", "), children: []*PlanNode{node}}
		it = pl.attach(&projectOp{src: it, offs: offs, out: batch{cols: make([][]string, len(offs))}}, node)
	}

	if len(q.OrderBy) > 0 {
		var keys []sortKey
		for _, key := range q.OrderBy {
			col, err := findOutputCol(columns, key.Expr)
			if err != nil {
				it.Close()
				return nil, nil, err
			}
			keys = append(keys, sortKey{col: col, desc: key.Desc, numeric: kinds[col].Numeric()})
		}
		if q.Limit >= 0 {
			// ORDER BY + LIMIT: a bounded heap holds the best k rows
			// instead of materializing and sorting the whole input.
			node = &PlanNode{op: "top-k", detail: fmt.Sprintf("by %s limit %d", orderDetail(q), q.Limit), children: []*PlanNode{node}}
			it = pl.attach(&topKOp{ctx: pl.ctx, src: it, keys: keys, k: q.Limit}, node)
		} else {
			node = &PlanNode{op: "sort", detail: "by " + orderDetail(q), children: []*PlanNode{node}}
			it = pl.attach(&sortOp{ctx: pl.ctx, src: it, keys: keys}, node)
		}
	} else if q.Limit >= 0 {
		node = &PlanNode{op: "limit", detail: strconv.Itoa(q.Limit), children: []*PlanNode{node}}
		it = pl.attach(&limitOp{src: it, left: q.Limit}, node)
	}
	return &Rows{columns: columns, kinds: kinds, it: it}, node, nil
}

// groupDetail renders the group node: grouping keys as written plus
// the aggregate expressions from the SELECT list.
func groupDetail(q *Query) string {
	var refs []string
	for _, r := range q.GroupBy {
		refs = append(refs, r.String())
	}
	var aggs []string
	for _, e := range q.Select {
		if e.Agg != "" {
			aggs = append(aggs, e.String())
		}
	}
	switch {
	case len(refs) > 0 && len(aggs) > 0:
		return "by " + strings.Join(refs, ", ") + " aggregate " + strings.Join(aggs, ", ")
	case len(refs) > 0:
		return "by " + strings.Join(refs, ", ")
	default:
		return "aggregate " + strings.Join(aggs, ", ")
	}
}

// findOutputCol matches an ORDER BY expression to an output column: the
// rendered name exactly, or — for a plain unqualified column — the
// unique output whose unqualified name matches.
func findOutputCol(columns []string, e SelectExpr) (int, error) {
	name := e.String()
	for i, c := range columns {
		if c == name {
			return i, nil
		}
	}
	if e.Agg == "" && e.Col.Table == "" {
		found := -1
		for i, c := range columns {
			if c == e.Col.Col || strings.HasSuffix(c, "."+e.Col.Col) {
				if found >= 0 {
					return 0, fmt.Errorf("query: ORDER BY %s is ambiguous among output columns %s",
						name, strings.Join(columns, ", "))
				}
				found = i
			}
		}
		if found >= 0 {
			return found, nil
		}
	}
	return 0, fmt.Errorf("query: ORDER BY %s does not name an output column (have %s)",
		name, strings.Join(columns, ", "))
}
