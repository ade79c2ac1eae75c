package query

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"datamaran/internal/core"
	"datamaran/internal/lake"
	"datamaran/internal/semtype"
	"datamaran/internal/template"
)

// Engine ≡ naive evaluator. A seeded generator draws queries over every
// construct of the dialect; each runs through the engine three ways — an
// in-memory catalog (at every size of batchSizes), the record store with
// pushdown, the same store under NoPushdown — and must agree
// with naiveEval below: FROM-order nested loops, every predicate at the
// end, linear grouping, a full stable sort. The fact table spans five
// blocks in three segments and joins fan out past a batch, so batch
// boundaries fall inside join builds and probes, groups and the top-k
// heap.

// compareVals is the dialect's ordering rule, written the obvious way:
// numeric when asked and both sides parse, lexicographic otherwise.
func compareVals(l, r string, numeric bool) int {
	if numeric {
		lf, lerr := strconv.ParseFloat(l, 64)
		rf, rerr := strconv.ParseFloat(r, 64)
		if lerr == nil && rerr == nil {
			switch {
			case lf < rf:
				return -1
			case lf > rf:
				return 1
			default:
				return 0
			}
		}
	}
	return strings.Compare(l, r)
}

// writeStoreTable commits rows as one table of store, a segment per
// segRows rows (segments scan in path order, which is row order here).
func writeStoreTable(tb testing.TB, store *lake.SegmentStore, name string, ncols int, rows [][]string, segRows int) {
	tb.Helper()
	var parts []*template.Node
	for c := 0; c < ncols; c++ {
		parts = append(parts, template.Field(), template.Lit(" "))
	}
	tmpl := template.Struct(parts...)
	txn := store.Begin()
	for seg := 0; seg*segRows < len(rows); seg++ {
		var recs []core.RecordOut
		for _, row := range rows[seg*segRows : min((seg+1)*segRows, len(rows))] {
			rec := core.RecordOut{}
			for c, v := range row {
				rec.Fields = append(rec.Fields, core.FieldValue{Column: c, Value: v})
			}
			recs = append(recs, rec)
		}
		if err := txn.Rewrite(fmt.Sprintf("%s/%04d.log", name, seg), name, []*template.Node{tmpl}, recs, 0); err != nil {
			tb.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// equivTables draws the three tables. Key pools collide under naive
// concatenation (("a","bc") vs ("ab","c")) and include the empty cell.
// Numeric columns carry cells that do not parse: "" everywhere, and
// words in fact.f3 — which the in-memory catalog still declares int,
// while the store, classifying what it was given, calls it a string.
// The unparseable cells are all empty or letter-led, so with digit-led
// numbers the ordering rule stays a total preorder (a digit-led word
// would not do: "2" < "10" numerically, "10" < "1x" and "1x" < "2"
// lexicographically), which is what lets a heap and a full sort agree.
// Floats are multiples of ¼, so sums are exact in any join order.
func equivTables(rng *rand.Rand) memCatalog {
	pool := []string{"a", "ab", "bc", "c", "", "d"}
	pick := func(vals ...string) string { return vals[rng.Intn(len(vals))] }
	host := func() string { return fmt.Sprintf("h%02d", rng.Intn(40)) }
	num := func(n int, junk ...string) string {
		if len(junk) > 0 && rng.Intn(8) == 0 {
			return pick(junk...)
		}
		return strconv.Itoa(rng.Intn(n))
	}
	cols := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("f%d", i)
		}
		return out
	}
	str, in, fl := semtype.KindString, semtype.KindInt, semtype.KindFloat
	fact := make([][]string, 2300+rng.Intn(200))
	for i := range fact {
		quarter := strconv.FormatFloat(float64(rng.Intn(400))/4, 'g', -1, 64)
		fact[i] = []string{strconv.Itoa(i), pick(pool...), pick(pool...), num(10, "", "n/a", "x1"), pick(quarter, quarter, quarter, ""), host()}
	}
	dims := make([][]string, 25+rng.Intn(10))
	for i := range dims {
		dims[i] = []string{host(), pick(pool...), pick(pool...), num(10, "")}
	}
	tiny := make([][]string, 4+rng.Intn(4))
	for i := range tiny {
		tiny[i] = []string{pick(pool...), num(10)}
	}
	return memCatalog{
		"fact": mkTable("fact", cols(6), []semtype.Kind{in, str, str, in, fl, str}, fact...),
		"dims": mkTable("dims", cols(4), []semtype.Kind{str, str, str, in}, dims...),
		"tiny": mkTable("tiny", cols(2), []semtype.Kind{str, in}, tiny...),
	}
}

// summable lists, per table, the columns numeric under both the declared
// and the store-inferred kinds: the ones sum and avg accept either way.
var summable = map[string][]int{"fact": {0, 4}, "dims": {3}, "tiny": {1}}

// equivQuery draws one query text over a 1–3-table FROM list.
func equivQuery(rng *rand.Rand, cat memCatalog) string {
	var from []string
	switch rng.Intn(20) {
	case 0, 1, 2:
		from = []string{"fact", "dims", "tiny"}
	case 3, 4, 5, 6:
		from = []string{"fact", "dims"}
	case 7, 8:
		from = []string{"tiny", "fact"}
	case 9:
		from = []string{"dims", "tiny"}
	case 10:
		from = []string{"dims"}
	default:
		from = []string{"fact"}
	}
	alias := func(t int) string { return string(rune('a' + t)) }
	ref := func(t, c int) string { return fmt.Sprintf("%s.f%d", alias(t), c) }
	randRef := func() (int, int) {
		t := rng.Intn(len(from))
		return t, rng.Intn(len(cat[from[t]].meta.Columns))
	}
	ops := []string{"=", "!=", "<", "<=", ">", ">="}

	var where []string
	if len(from) > 1 && rng.Intn(5) > 0 {
		// Equi-join the tables: fact.f5 = dims.f0 and x.f1 = tiny.f0, or
		// a composite key over the colliding pools.
		for t := 1; t < len(from); t++ {
			l, r := ref(0, 5), ref(t, 0)
			switch {
			case from[0] == "fact" && from[t] == "dims" && rng.Intn(3) == 0:
				where = append(where, ref(0, 2)+" = "+ref(t, 2))
				l, r = ref(0, 1), ref(t, 1)
			case from[0] != "fact" || from[t] != "dims":
				l = ref(0, 1)
			}
			where = append(where, l+" = "+r)
		}
	}
	for n := rng.Intn(3); n > 0; n-- {
		t, c := randRef()
		if rng.Intn(4) == 0 {
			t2, c2 := randRef()
			where = append(where, fmt.Sprintf("%s %s %s", ref(t, c), ops[rng.Intn(6)], ref(t2, c2)))
			continue
		}
		rows := cat[from[t]].rows
		lit := rows[rng.Intn(len(rows))][c]
		if rng.Intn(5) == 0 {
			lit = []string{"5", "ab", "", "zz", "12.5"}[rng.Intn(5)]
		}
		where = append(where, fmt.Sprintf("%s %s '%s'", ref(t, c), ops[rng.Intn(6)], lit))
	}

	var sel, groupBy []string // sel: the output columns, as ORDER BY may name them
	star := false
	switch rng.Intn(5) {
	case 0:
		star = true
		for t := range from {
			for c := range cat[from[t]].meta.Columns {
				if len(from) == 1 {
					sel = append(sel, fmt.Sprintf("f%d", c))
				} else {
					sel = append(sel, ref(t, c))
				}
			}
		}
	case 1, 2: // grouped
		for n := rng.Intn(3); n > 0; n-- {
			t, c := randRef()
			if key := ref(t, c); !strings.Contains(strings.Join(groupBy, ","), key) {
				groupBy = append(groupBy, key)
				if rng.Intn(4) > 0 {
					sel = append(sel, key)
				}
			}
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			t, c := randRef()
			agg := []string{"count", "min", "max", "sum", "avg"}[rng.Intn(5)]
			switch {
			case agg == "count" && rng.Intn(2) == 0:
				sel = append(sel, "count(*)")
				continue
			case agg == "sum" || agg == "avg":
				ok := summable[from[t]]
				c = ok[rng.Intn(len(ok))]
			}
			if e := fmt.Sprintf("%s(%s)", agg, ref(t, c)); !strings.Contains(strings.Join(sel, ","), e) {
				sel = append(sel, e)
			}
		}
	default: // projection
		for n := 1 + rng.Intn(4); n > 0; n-- {
			t, c := randRef()
			if e := ref(t, c); !strings.Contains(strings.Join(sel, ","), e) {
				sel = append(sel, e)
			}
		}
	}
	text := "SELECT " + strings.Join(sel, ", ")
	if star {
		text = "SELECT *"
	}
	for t := range from {
		from[t] += " AS " + alias(t)
	}
	text += " FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		text += " WHERE " + strings.Join(where, " AND ")
	}
	if len(groupBy) > 0 {
		text += " GROUP BY " + strings.Join(groupBy, ", ")
	}
	if rng.Intn(2) == 0 {
		var keys []string
		for n := 1 + rng.Intn(2); n > 0; n-- {
			key := sel[rng.Intn(len(sel))]
			if strings.Contains(strings.Join(keys, ","), key) {
				continue
			}
			if rng.Intn(2) == 0 {
				key += " DESC"
			}
			keys = append(keys, key)
		}
		text += " ORDER BY " + strings.Join(keys, ", ")
	}
	switch rng.Intn(6) {
	case 0:
		text += " LIMIT 0"
	case 1, 2:
		text += fmt.Sprintf(" LIMIT %d", 1+rng.Intn(30))
	case 3:
		text += " LIMIT 5000"
	}
	return text
}

// naiveEval evaluates q the slow, obviously-correct way over the
// tables' rows, with kinds as cat declares them. It returns the output
// columns, the full ordered result before LIMIT, and the ORDER BY
// columns' output indexes.
func naiveEval(t *testing.T, cat Catalog, tables memCatalog, q *Query) (columns []string, full [][]string, orderCols []int) {
	type binding struct {
		alias string
		meta  lake.TableInfo
		rows  [][]string
	}
	var tabs []binding
	for _, f := range q.From {
		meta, err := cat.Resolve(f.Table)
		if err != nil {
			t.Fatal(err)
		}
		tabs = append(tabs, binding{f.Alias, meta, tables[f.Table].rows})
	}
	// resolve maps a reference to (table, column).
	resolve := func(ref ColRef) (int, int) {
		for ti, tab := range tabs {
			if ref.Table != "" && ref.Table != tab.alias {
				continue
			}
			for ci, name := range tab.meta.Columns {
				if name == ref.Col {
					return ti, ci
				}
			}
		}
		t.Fatalf("unresolved reference %s", ref)
		return 0, 0
	}
	holds := func(c int, op string) bool {
		switch op {
		case "<":
			return c < 0
		case "<=":
			return c <= 0
		case ">":
			return c > 0
		}
		return c >= 0
	}

	// Cross product in FROM order, every predicate applied at the end.
	var joined [][][]string
	current := make([][]string, len(tabs))
	var walk func(depth int)
	walk = func(depth int) {
		if depth < len(tabs) {
			for _, row := range tabs[depth].rows {
				current[depth] = row
				walk(depth + 1)
			}
			return
		}
		for _, p := range q.Where {
			lt, lc := resolve(p.Left)
			l, r, numeric := current[lt][lc], p.Lit, tabs[lt].meta.Kinds[lc].Numeric()
			if !p.IsLit {
				rt, rc := resolve(p.Right)
				r, numeric = current[rt][rc], numeric && tabs[rt].meta.Kinds[rc].Numeric()
			}
			ok := false
			switch p.Op {
			case "=":
				ok = l == r
			case "!=":
				ok = l != r
			default:
				ok = holds(compareVals(l, r, numeric), p.Op)
			}
			if !ok {
				return
			}
		}
		joined = append(joined, append([][]string(nil), current...))
	}
	walk(0)

	var kinds []semtype.Kind
	grouped := len(q.GroupBy) > 0
	for _, e := range q.Select {
		grouped = grouped || e.Agg != ""
	}
	switch {
	case q.Star:
		for _, tab := range tabs {
			for ci, name := range tab.meta.Columns {
				if len(tabs) > 1 {
					name = tab.alias + "." + name
				}
				columns = append(columns, name)
				kinds = append(kinds, tab.meta.Kinds[ci])
			}
		}
		for _, combo := range joined {
			var row []string
			for _, part := range combo {
				row = append(row, part...)
			}
			full = append(full, row)
		}
	case !grouped:
		for _, e := range q.Select {
			ti, ci := resolve(e.Col)
			columns = append(columns, e.String())
			kinds = append(kinds, tabs[ti].meta.Kinds[ci])
		}
		for _, combo := range joined {
			var row []string
			for _, e := range q.Select {
				ti, ci := resolve(e.Col)
				row = append(row, combo[ti][ci])
			}
			full = append(full, row)
		}
	default:
		// Groups in first-seen order, found by comparing key tuples cell
		// by cell.
		type group struct {
			key     []string
			members [][][]string
		}
		var groups []*group
		for _, combo := range joined {
			var key []string
			for _, ref := range q.GroupBy {
				ti, ci := resolve(ref)
				key = append(key, combo[ti][ci])
			}
			var g *group
			for _, cand := range groups {
				if slices.Equal(cand.key, key) {
					g = cand
					break
				}
			}
			if g == nil {
				g = &group{key: key}
				groups = append(groups, g)
			}
			g.members = append(g.members, combo)
		}
		if len(q.GroupBy) == 0 && len(groups) == 0 {
			groups = append(groups, &group{})
		}
		for _, e := range q.Select {
			columns = append(columns, e.String())
			kind := semtype.KindInt // count
			if !e.Star {
				ti, ci := resolve(e.Col)
				switch colKind := tabs[ti].meta.Kinds[ci]; e.Agg {
				case "avg":
					kind = semtype.KindFloat
				case "", "sum", "min", "max":
					kind = colKind
				}
			}
			kinds = append(kinds, kind)
		}
		for _, g := range groups {
			var row []string
			for _, e := range q.Select {
				if e.Agg == "" {
					for k, ref := range q.GroupBy {
						if ref == e.Col {
							row = append(row, g.key[k])
							break
						}
					}
					continue
				}
				if e.Star {
					row = append(row, strconv.Itoa(len(g.members)))
					continue
				}
				ti, ci := resolve(e.Col)
				kind := tabs[ti].meta.Kinds[ci]
				count, sumI, sumF, best := 0, int64(0), 0.0, ""
				for _, combo := range g.members {
					v := combo[ti][ci]
					if v == "" {
						continue
					}
					switch e.Agg {
					case "count":
						count++
					case "sum", "avg":
						if n, err := strconv.ParseInt(v, 10, 64); kind == semtype.KindInt && err == nil {
							sumI += n
							count++
						} else if f, err := strconv.ParseFloat(v, 64); kind != semtype.KindInt && err == nil {
							sumF += f
							count++
						}
					case "min":
						if count == 0 || compareVals(v, best, kind.Numeric()) < 0 {
							best = v
						}
						count++
					case "max":
						if count == 0 || compareVals(v, best, kind.Numeric()) > 0 {
							best = v
						}
						count++
					}
				}
				if kind == semtype.KindInt {
					sumF = float64(sumI)
				}
				switch {
				case e.Agg == "count":
					row = append(row, strconv.Itoa(count))
				case e.Agg == "min" || e.Agg == "max":
					row = append(row, best)
				case count == 0:
					row = append(row, "")
				case e.Agg == "avg":
					row = append(row, strconv.FormatFloat(sumF/float64(count), 'g', -1, 64))
				case kind == semtype.KindInt:
					row = append(row, strconv.FormatInt(sumI, 10))
				default:
					row = append(row, strconv.FormatFloat(sumF, 'g', -1, 64))
				}
			}
			full = append(full, row)
		}
	}

	for _, key := range q.OrderBy {
		col, err := findOutputCol(columns, key.Expr)
		if err != nil {
			t.Fatal(err)
		}
		orderCols = append(orderCols, col)
	}
	sort.SliceStable(full, func(a, b int) bool {
		for i, key := range q.OrderBy {
			col := orderCols[i]
			c := compareVals(full[a][col], full[b][col], kinds[col].Numeric())
			if key.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return columns, full, orderCols
}

func TestEngineMatchesNaiveEvaluator(t *testing.T) {
	seeds, perSeed := 3, 50
	if testing.Short() {
		seeds, perSeed = 1, 30
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		tables := equivTables(rng)
		store, err := lake.OpenSegmentStore(filepath.Join(t.TempDir(), "store"))
		if err != nil {
			t.Fatal(err)
		}
		for name, tab := range tables {
			segRows := 3
			if name == "fact" {
				segRows = 1100
			}
			writeStoreTable(t, store, name, len(tab.meta.Columns), tab.rows, segRows)
		}
		paths := []struct {
			name string
			cat  Catalog
		}{
			{"rows", tables},
			{"store", StoreCatalog(store)},
			{"nopush", NoPushdown(StoreCatalog(store))},
		}
		for n := 0; n < perSeed; n++ {
			text := equivQuery(rng, tables)
			q, err := Parse(text)
			if err != nil {
				t.Fatalf("seed %d: %q: %v", seed, text, err)
			}
			var wantCols []string
			var full [][]string
			var orderCols []int
			for pi, p := range paths {
				if pi < 2 { // nopush shares the store's kinds, hence its answer
					wantCols, full, orderCols = naiveEval(t, p.cat, tables, q)
				}
				want := full
				if q.Limit >= 0 && q.Limit < len(full) {
					want = full[:q.Limit]
				}
				cols, got := collect(t, p.cat, text)
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("seed %d, %s: %s\n%s", seed, p.name, text, fmt.Sprintf(format, args...))
				}
				if strings.Join(cols, ",") != strings.Join(wantCols, ",") {
					fail("columns %v, want %v", cols, wantCols)
				}
				if len(got) != len(want) {
					fail("%d rows, want %d", len(got), len(want))
				}
				if len(q.From) == 1 {
					// One table: the engine's order is the evaluator's.
					for i := range want {
						if !rowsEqual(got[i:i+1], want[i:i+1]) {
							fail("row %d: %q, want %q", i, got[i], want[i])
						}
					}
					continue
				}
				// A join's input order is the planner's choice, so rows
				// that tie under ORDER BY (or all rows, without one) may
				// come in another order and a LIMIT may keep other tied
				// rows: the sort keys must match in order, and the rows
				// as a multiset — of the whole result when it is all
				// there, else drawn from it.
				for i := range want {
					for _, col := range orderCols {
						if got[i][col] != want[i][col] {
							fail("row %d: sort key %q, want %q", i, got[i][col], want[i][col])
						}
					}
				}
				have := map[string]int{}
				for _, row := range full {
					have[strings.Join(row, "\x00")]++
				}
				for i, row := range got {
					key := strings.Join(row, "\x00")
					if have[key]--; have[key] < 0 {
						fail("row %d %q: not in (or more often than in) the evaluator's result", i, row)
					}
				}
			}
		}
	}
}
