package query

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"datamaran/internal/semtype"
)

// EXPLAIN / EXPLAIN ANALYZE. The planner builds a PlanNode tree in
// lockstep with the iterator tree; under ExplainPlan the iterators are
// closed unread and the rendered tree streams back as ordinary result
// rows (a single "plan" column, one row per line), so all three query
// surfaces — the Go API, the CLI and /v1/query — emit byte-identical,
// golden-pinnable plans through the existing CSV/NDJSON writers. Under
// ExplainAnalyze every operator is wrapped with a recorder, the query
// drains fully, and the same tree renders with per-operator rows and
// batches handed upward, wall time and — for scans — blocks decoded vs
// zone-map-pruned. Timings appear only in analyze output, never in a
// plan-only explain and never in normal results.

// ExplainMode selects normal execution, plan-only explain, or full
// explain-analyze.
type ExplainMode int

const (
	// ExplainNone executes the query and streams its rows.
	ExplainNone ExplainMode = iota
	// ExplainPlan returns the plan tree without executing (scans open
	// and close, but no rows are read). Output is deterministic.
	ExplainPlan
	// ExplainAnalyze executes the query to completion and returns the
	// plan tree annotated with per-operator rows, batches, timings and
	// scan block counters. Output contains wall times and is not golden.
	ExplainAnalyze
)

// ParseExplainMode maps the user-facing spelling ("", "plan",
// "analyze") to an ExplainMode.
func ParseExplainMode(s string) (ExplainMode, error) {
	switch s {
	case "", "none":
		return ExplainNone, nil
	case "plan":
		return ExplainPlan, nil
	case "analyze":
		return ExplainAnalyze, nil
	}
	return ExplainNone, fmt.Errorf("query: unknown explain mode %q (want plan or analyze)", s)
}

// Options tunes Run beyond the query text.
type Options struct {
	Explain ExplainMode
}

// PlanNode is one operator in the rendered plan tree.
type PlanNode struct {
	op       string
	detail   string
	children []*PlanNode

	// analyze-time stats, filled by statOp wrappers
	rows    int
	batches int
	wall    time.Duration
	scan    *scanOp // scan nodes only: source of block counters
}

// label renders one plan line (without indentation).
func (n *PlanNode) label(analyze bool) string {
	s := n.op
	if n.detail != "" {
		s += " " + n.detail
	}
	if analyze {
		s += fmt.Sprintf(" rows=%d batches=%d", n.rows, n.batches)
		if n.scan != nil {
			d, p, _ := n.scan.src.BlockStats()
			s += fmt.Sprintf(" blocks=%d pruned=%d", d, p)
		}
		s += " time=" + fmtDur(n.wall)
	}
	return s
}

// renderPlan flattens the tree depth-first, two spaces per level.
func renderPlan(root *PlanNode, analyze bool) []string {
	var lines []string
	var walk func(n *PlanNode, depth int)
	walk = func(n *PlanNode, depth int) {
		lines = append(lines, strings.Repeat("  ", depth)+n.label(analyze))
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return lines
}

// fmtDur renders analyze wall times at microsecond precision.
func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// statOp wraps an operator under ExplainAnalyze, accumulating the rows
// and batches it hands upward and its inclusive wall time into its plan
// node.
type statOp struct {
	src  iter
	node *PlanNode
}

func (s *statOp) Next() (*batch, error) {
	t0 := time.Now()
	b, err := s.src.Next()
	s.node.wall += time.Since(t0)
	if err == nil {
		s.node.rows += len(b.sel)
		s.node.batches++
	}
	return b, err
}

func (s *statOp) Close() error { return s.src.Close() }

// attach wraps it with a stat recorder when analyzing; otherwise the
// operator passes through untouched (zero overhead on the normal
// path).
func (pl *planner) attach(it iter, n *PlanNode) iter {
	if pl.mode == ExplainAnalyze {
		return &statOp{src: it, node: n}
	}
	return it
}

// predsDetail renders predicates as written, joined with AND.
func predsDetail(preds []*compiledPred) string {
	parts := make([]string, len(preds))
	for i, cp := range preds {
		parts[i] = cp.src.String()
	}
	return strings.Join(parts, " AND ")
}

// orderDetail renders the ORDER BY keys.
func orderDetail(q *Query) string {
	parts := make([]string, len(q.OrderBy))
	for i, k := range q.OrderBy {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " desc"
		}
	}
	return strings.Join(parts, ", ")
}

// linesOp yields pre-rendered plan lines as one single-column batch.
type linesOp struct{ res chunks }

func (l *linesOp) Next() (*batch, error) { return l.res.next() }

func (l *linesOp) Close() error { return nil }

// planRows packages rendered plan lines as a result stream with a
// single "plan" column, so explain output flows through the same
// CSV/NDJSON writers as data.
func planRows(lines []string) *Rows {
	return &Rows{
		columns: []string{"plan"},
		kinds:   []semtype.Kind{semtype.KindString},
		it:      &linesOp{chunks{cols: [][]string{lines}, order: iota32(0, len(lines))}},
	}
}

// ExecStats aggregates a finished (or in-flight) query's scan-side
// work: rows pulled out of base tables and — against a zone-mapped
// store — blocks decoded vs pruned. Cheap to collect (plain per-scan
// counters), so callers can record it on every query. Scans hand rows
// upward a block at a time, so a query that stops early (a plain LIMIT)
// counts the whole of the block that satisfied it.
type ExecStats struct {
	RowsScanned   int
	BlocksDecoded int
	BlocksPruned  int
}

// Stats sums the scan counters across the query's base-table scans.
// Valid any time; typically read after draining, before Close.
func (r *Rows) Stats() ExecStats {
	var st ExecStats
	for _, s := range r.scans {
		st.RowsScanned += s.produced
		d, p, _ := s.src.BlockStats()
		st.BlocksDecoded += d
		st.BlocksPruned += p
	}
	return st
}

// RunWith is Run with options: explain modes reuse the identical
// planning path (join order, predicate placement, pushdown marking),
// so the plan shown is exactly the plan run.
func RunWith(ctx context.Context, cat Catalog, q *Query, opts Options) (*Rows, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("query: no FROM tables")
	}
	pl := &planner{ctx: ctx, cat: cat, q: q, mode: opts.Explain}
	for _, item := range q.From {
		meta, err := cat.Resolve(item.Table)
		if err != nil {
			return nil, err
		}
		pl.tables = append(pl.tables, plannedTable{item: item, meta: meta, offset: pl.width})
		pl.width += len(meta.Columns)
	}
	for _, p := range q.Where {
		cp, err := pl.compilePred(p)
		if err != nil {
			return nil, err
		}
		pl.preds = append(pl.preds, cp)
	}
	for i := range pl.preds {
		cp := &pl.preds[i]
		if cp.isLit {
			if cp.op == "=" {
				pl.tables[cp.lTab].eqLit++
			} else {
				pl.tables[cp.lTab].otherLit++
			}
		}
	}
	if push, ok := cat.(PushCatalog); ok {
		pl.push = push
		if err := pl.computeNeeded(); err != nil {
			return nil, err
		}
	}

	order := pl.greedyOrder()
	it, node, err := pl.buildJoinTree(order)
	if err != nil {
		return nil, err
	}
	rows, root, err := pl.buildHead(it, node)
	if err != nil {
		return nil, err
	}
	rows.scans = pl.scans

	switch opts.Explain {
	case ExplainPlan:
		rows.Close()
		return planRows(renderPlan(root, false)), nil
	case ExplainAnalyze:
		t0 := time.Now()
		n := 0
		for {
			b, err := rows.it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				rows.Close()
				return nil, err
			}
			n += len(b.sel)
		}
		total := time.Since(t0)
		lines := renderPlan(root, true)
		lines = append(lines, fmt.Sprintf("total: rows=%d time=%s", n, fmtDur(total)))
		rows.Close()
		out := planRows(lines)
		// The scan counters survive Close, so the plan stream still
		// reports the drained execution's Stats.
		out.scans = pl.scans
		return out, nil
	}
	return rows, nil
}
