package query

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"datamaran/internal/lake"
	"datamaran/internal/semtype"
)

// The join-order property: whatever greedy order the planner picks, the
// result row-set equals the canonical nested-loop reference (cross
// product in FROM order, every predicate applied at the end) — and is
// stable under permutations of the FROM list.

// randomCatalog builds 2–4 small tables with overlapping value pools so
// joins actually match.
func randomCatalog(rng *rand.Rand) (memCatalog, []string) {
	words := []string{"east", "west", "north", "q1", "q2", "db01", "web01", ""}
	ntab := 2 + rng.Intn(3)
	cat := memCatalog{}
	var names []string
	for t := 0; t < ntab; t++ {
		name := fmt.Sprintf("t%d", t)
		ncols := 1 + rng.Intn(3)
		cols := make([]string, ncols)
		kinds := make([]semtype.Kind, ncols)
		for c := range cols {
			cols[c] = fmt.Sprintf("f%d", c)
			if rng.Intn(2) == 0 {
				kinds[c] = semtype.KindInt
			} else {
				kinds[c] = semtype.KindString
			}
		}
		nrows := rng.Intn(25)
		rows := make([][]string, nrows)
		for r := range rows {
			row := make([]string, ncols)
			for c := range row {
				if kinds[c] == semtype.KindInt {
					row[c] = strconv.Itoa(rng.Intn(12))
				} else {
					row[c] = words[rng.Intn(len(words))]
				}
			}
			rows[r] = row
		}
		cat[name] = &memTable{
			meta: lake.TableInfo{Name: name, Columns: cols, Kinds: kinds, Rows: nrows},
			rows: rows,
		}
		names = append(names, name)
	}
	return cat, names
}

// randomQuery selects every column of every table (qualified, so the
// output is comparable across FROM permutations) with random literal
// and join predicates.
func randomQuery(rng *rand.Rand, cat memCatalog, names []string) *Query {
	q := &Query{Limit: -1}
	for i, name := range names {
		alias := fmt.Sprintf("a%d", i)
		q.From = append(q.From, FromItem{Table: name, Alias: alias})
		for _, col := range cat[name].meta.Columns {
			q.Select = append(q.Select, SelectExpr{Col: ColRef{Table: alias, Col: col}})
		}
	}
	randRef := func() (ColRef, semtype.Kind) {
		ti := rng.Intn(len(names))
		meta := cat[names[ti]].meta
		ci := rng.Intn(len(meta.Columns))
		return ColRef{Table: fmt.Sprintf("a%d", ti), Col: meta.Columns[ci]}, meta.Kinds[ci]
	}
	npred := rng.Intn(5)
	for p := 0; p < npred; p++ {
		left, kind := randRef()
		switch rng.Intn(3) {
		case 0: // equality literal
			lit := strconv.Itoa(rng.Intn(12))
			if kind == semtype.KindString {
				lit = []string{"east", "q1", "db01"}[rng.Intn(3)]
			}
			q.Where = append(q.Where, Predicate{Left: left, Op: "=", IsLit: true, Lit: lit})
		case 1: // ordering literal
			op := []string{"<", "<=", ">", ">=", "!="}[rng.Intn(5)]
			q.Where = append(q.Where, Predicate{Left: left, Op: op, IsLit: true, Lit: strconv.Itoa(rng.Intn(12))})
		default: // column = column (a join when tables differ)
			right, _ := randRef()
			q.Where = append(q.Where, Predicate{Left: left, Op: "=", Right: right})
		}
	}
	return q
}

// nestedLoopRef evaluates q the slow, obviously-correct way.
func nestedLoopRef(cat memCatalog, q *Query) [][]string {
	type binding struct {
		meta lake.TableInfo
		rows [][]string
	}
	var tabs []binding
	aliasIdx := map[string]int{}
	for i, f := range q.From {
		t := cat[f.Table]
		tabs = append(tabs, binding{meta: t.meta, rows: t.rows})
		aliasIdx[f.Alias] = i
	}
	lookup := func(row [][]string, ref ColRef) (string, semtype.Kind) {
		ti := aliasIdx[ref.Table]
		for ci, name := range tabs[ti].meta.Columns {
			if name == ref.Col {
				return row[ti][ci], tabs[ti].meta.Kinds[ci]
			}
		}
		panic("unresolved ref " + ref.String())
	}
	evalPred := func(row [][]string, p Predicate) bool {
		l, lk := lookup(row, p.Left)
		var r string
		numeric := lk.Numeric()
		if p.IsLit {
			r = p.Lit
		} else {
			var rk semtype.Kind
			r, rk = lookup(row, p.Right)
			numeric = numeric && rk.Numeric()
		}
		switch p.Op {
		case "=":
			return l == r
		case "!=":
			return l != r
		}
		c := compareVals(l, r, numeric)
		switch p.Op {
		case "<":
			return c < 0
		case "<=":
			return c <= 0
		case ">":
			return c > 0
		default:
			return c >= 0
		}
	}
	var out [][]string
	current := make([][]string, len(tabs))
	var walk func(depth int)
	walk = func(depth int) {
		if depth == len(tabs) {
			for _, p := range q.Where {
				if !evalPred(current, p) {
					return
				}
			}
			var row []string
			for _, e := range q.Select {
				v, _ := lookup(current, e.Col)
				row = append(row, v)
			}
			out = append(out, row)
			return
		}
		for _, r := range tabs[depth].rows {
			current[depth] = r
			walk(depth + 1)
		}
	}
	walk(0)
	return out
}

// multiset renders rows as a sorted multiset for order-insensitive
// comparison.
func multiset(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\x00")
	}
	sort.Strings(out)
	return out
}

func TestJoinOrderMatchesNestedLoopReference(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cat, names := randomCatalog(rng)
		q := randomQuery(rng, cat, names)
		want := multiset(nestedLoopRef(cat, q))
		_, rows := runEngine(t, cat, q)
		got := multiset(rows)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("seed %d: engine disagrees with nested-loop reference\nquery: %+v\ngot %d rows, want %d",
				seed, q, len(got), len(want))
		}

		// The row-set is also invariant under FROM permutations (the
		// SELECT list is fixed, so outputs stay comparable).
		perm := rng.Perm(len(q.From))
		q2 := *q
		q2.From = make([]FromItem, len(q.From))
		for i, p := range perm {
			q2.From[i] = q.From[p]
		}
		_, rows = runEngine(t, cat, &q2)
		got2 := multiset(rows)
		if strings.Join(got2, "\n") != strings.Join(want, "\n") {
			t.Fatalf("seed %d: permuted FROM changed the row-set\nquery: %+v", seed, q2)
		}
	}
}
