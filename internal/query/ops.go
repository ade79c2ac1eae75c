package query

import (
	"context"
	"encoding/binary"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The operators. A plan is a tree of iters, and the unit that moves
// between them is the batch: the rows of (at most) one store block as
// column vectors, plus a selection vector naming the live rows. Nothing
// above a scan handles a row at a time except what it keeps — a join's
// build side and output, heap entries, group keys, the final rows — and
// what an operator keeps past the batch it came in, it clones, so a
// kept cell never holds a block's column string alive.

// batchRows caps the batches the engine forms itself (packed rows, join
// output, the chunks a blocking operator emits): the store's block size.
const batchRows = 1024

// batch is a set of rows in column-major form. cols has one vector per
// column of the operator's output layout — the plan's wide row up to
// the head of the plan, the SELECT list above it; a nil vector is a
// column nobody asked for, and reads as "". sel lists the live rows as
// indexes into the vectors, in output order.
//
// A batch and its vectors belong to the operator that returned them and
// are valid until its next Next. Operators never write into an input
// batch's vectors: they re-reference them (project), narrow sel into a
// buffer of their own (filter, limit) or gather into their own vectors
// (join).
type batch struct {
	cols [][]string
	sel  []int32
	// tight means the live cells cover the strings they are carved from
	// (a whole store block, or strings the operator made for them), so
	// handing them to the caller wastes nothing; a batch that lost rows
	// above the scan is not, and the Rows cursor clones its cells.
	tight bool
}

// iter is the one operator interface: Next returns the next non-empty
// batch, or io.EOF after the last.
type iter interface {
	Next() (*batch, error)
	Close() error
}

// iota32 returns [lo, lo+1, …, hi).
func iota32(lo, hi int) []int32 {
	s := make([]int32, hi-lo)
	for i := range s {
		s[i] = int32(lo + i)
	}
	return s
}

// identity is the selection of a batch with every row live.
var identity = iota32(0, batchRows)

func identitySel(n int) []int32 {
	if n <= len(identity) {
		return identity[:n]
	}
	return iota32(0, n)
}

// appendCloned appends copies of col's selected cells to dst: one new
// string holds them all, so the cost is one allocation per column per
// batch, not one per cell. A nil col appends empty cells.
func appendCloned(dst, col []string, sel []int32) []string {
	if col == nil {
		return append(dst, make([]string, len(sel))...)
	}
	total := 0
	for _, r := range sel {
		total += len(col[r])
	}
	var sb strings.Builder
	sb.Grow(total)
	for _, r := range sel {
		sb.WriteString(col[r])
	}
	all, off := sb.String(), 0
	for _, r := range sel {
		n := len(col[r])
		dst = append(dst, all[off:off+n])
		off += n
	}
	return dst
}

// numKey is a cell parsed once for ordering: its value when the column
// is numeric and the cell parses as a float.
type numKey struct {
	f  float64
	ok bool
}

func parseKey(s string, numeric bool) numKey {
	if !numeric {
		return numKey{}
	}
	f, err := strconv.ParseFloat(s, 64)
	return numKey{f: f, ok: err == nil}
}

// compareKeyed orders two cells: numerically when both parsed,
// lexicographically otherwise.
func compareKeyed(l, r string, lk, rk numKey) int {
	if lk.ok && rk.ok {
		switch {
		case lk.f < rk.f:
			return -1
		case lk.f > rk.f:
			return 1
		}
		return 0
	}
	return strings.Compare(l, r)
}

// filter appends to out the rows of in that pass the predicate. out may
// be in[:0]: a row is read before its slot can be written.
func (cp *compiledPred) filter(cols [][]string, in, out []int32) []int32 {
	l := cols[cp.lOff]
	var r []string
	if !cp.isLit {
		r = cols[cp.rOff]
	}
	if cp.op == "=" || cp.op == "!=" {
		want := cp.op == "="
		for _, i := range in {
			rv := cp.lit
			if r != nil {
				rv = r[i]
			}
			if (l[i] == rv) == want {
				out = append(out, i)
			}
		}
		return out
	}
	lt, eq, gt := cp.op[0] == '<', len(cp.op) == 2, cp.op[0] == '>'
	for _, i := range in {
		rv, rk := cp.lit, cp.litKey
		if r != nil {
			rv, rk = r[i], parseKey(r[i], cp.numeric)
		}
		c := compareKeyed(l[i], rv, parseKey(l[i], rk.ok), rk)
		if c < 0 && lt || c == 0 && eq || c > 0 && gt {
			out = append(out, i)
		}
	}
	return out
}

// scanOp places a base table's batches in the plan's column layout by
// re-referencing the source's vectors, and checks for cancellation once
// per batch.
type scanOp struct {
	ctx      context.Context
	src      BatchScan // what the catalog opened: closed here, asked for block counters
	offset   int
	out      batch
	produced int // rows handed upward, for Rows.Stats
}

func (s *scanOp) Next() (*batch, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	b, err := s.src.NextBatch()
	if err != nil {
		return nil, err
	}
	s.produced += b.Rows
	copy(s.out.cols[s.offset:], b.Cols)
	s.out.sel = identitySel(b.Rows)
	return &s.out, nil
}

func (s *scanOp) Close() error { return s.src.Close() }

// filterOp narrows each batch's selection to the rows passing every
// predicate.
type filterOp struct {
	src   iter
	preds []*compiledPred
	sel   []int32
	out   batch
}

func (f *filterOp) Next() (*batch, error) {
	for {
		b, err := f.src.Next()
		if err != nil {
			return nil, err
		}
		sel := f.preds[0].filter(b.cols, b.sel, f.sel[:0])
		for _, cp := range f.preds[1:] {
			sel = cp.filter(b.cols, sel, sel[:0])
		}
		f.sel = sel
		if len(sel) > 0 {
			f.out = batch{cols: b.cols, sel: sel, tight: b.tight && len(sel) == len(b.sel)}
			return &f.out, nil
		}
	}
}

func (f *filterOp) Close() error { return f.src.Close() }

// keyIndex numbers distinct keys — the cells at some offsets of a row —
// in first-seen order. One key column is looked up by the cell itself;
// several are length-prefixed into a reused buffer first, so ("a","bc")
// and ("ab","c") differ.
type keyIndex struct {
	ids  map[string]int32
	keys []string // id → key, as looked up (owned copies)
	buf  []byte
}

// assign appends the key id of each live row of b to out. An unseen key
// is numbered when add is set and reported as -1 otherwise.
func (k *keyIndex) assign(b *batch, offs []int, add bool, out []int32) []int32 {
	if k.ids == nil {
		k.ids = map[string]int32{}
	}
	insert := func(key string) int32 {
		if !add {
			return -1
		}
		id := int32(len(k.keys))
		k.ids[key] = id
		k.keys = append(k.keys, key)
		return id
	}
	if len(offs) == 1 {
		col := b.cols[offs[0]]
		for _, r := range b.sel {
			id, ok := k.ids[col[r]]
			if !ok {
				id = insert(strings.Clone(col[r]))
			}
			out = append(out, id)
		}
		return out
	}
	for _, r := range b.sel {
		buf := k.buf[:0]
		for _, off := range offs {
			buf = binary.AppendUvarint(buf, uint64(len(b.cols[off][r])))
			buf = append(buf, b.cols[off][r]...)
		}
		k.buf = buf
		id, ok := k.ids[string(buf)]
		if !ok {
			id = insert(string(buf))
		}
		out = append(out, id)
	}
	return out
}

// splitKey appends the n cells of a length-prefixed key to dst.
func splitKey(key string, n int, dst []string) []string {
	for ; n > 0; n-- {
		size, shift, i := 0, 0, 0
		for {
			c := key[i]
			i++
			size |= int(c&0x7f) << shift
			if c < 0x80 {
				break
			}
			shift += 7
		}
		dst = append(dst, key[i:i+size])
		key = key[i+size:]
	}
	return dst
}

// hashJoinOp materializes the (filtered) build side — its cells cloned
// column by column, its rows numbered by key — and streams the probe
// side through it, gathering each batch's matches into vectors of its
// own. With no keys every row has the one empty key: a cross product.
// Output order is probe order, and within one probe row build order.
// Empty intermediates terminate early on both sides: the build runs
// only after the first probe batch arrives (an empty probe never scans
// the build table), and an empty build stops the probe after that one
// batch. Cancellation is checked per build batch and per output batch —
// a probe batch can fan out into many.
type hashJoinOp struct {
	ctx                context.Context
	probe, build       iter
	probeOffs          []int
	buildOffs          []int
	buildLo, buildHi   int // the build table's slots in the wide row
	built, done        bool
	index              keyIndex
	bcols              [][]string // build rows, by wide-row slot (nil outside the build table)
	rowKeys            []int32    // build row → key id, until the build ends
	starts             []int32    // key id → its rows are order[starts[id]:starts[id+1]]
	order              []int32
	cur                *batch  // probe batch being expanded
	ids                []int32 // its rows' key ids
	ri, mi             int     // next probe row, next match of that row
	probeSel, buildSel []int32 // the output rows' sources
	out                batch
}

func (h *hashJoinOp) buildTable() error {
	h.built = true
	defer h.build.Close()
	h.bcols = make([][]string, len(h.out.cols))
	for {
		if err := h.ctx.Err(); err != nil {
			return err
		}
		b, err := h.build.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for c := h.buildLo; c < h.buildHi; c++ {
			if b.cols[c] != nil {
				h.bcols[c] = appendCloned(h.bcols[c], b.cols[c], b.sel)
			}
		}
		h.rowKeys = h.index.assign(b, h.buildOffs, true, h.rowKeys)
	}
	// Counting sort of the build rows by key id: each key's rows end up
	// adjacent, in build order.
	h.starts = make([]int32, len(h.index.keys)+1)
	for _, id := range h.rowKeys {
		h.starts[id+1]++
	}
	for i := 1; i < len(h.starts); i++ {
		h.starts[i] += h.starts[i-1]
	}
	h.order = make([]int32, len(h.rowKeys))
	next := append([]int32(nil), h.starts...)
	for row, id := range h.rowKeys {
		h.order[next[id]] = int32(row)
		next[id]++
	}
	h.rowKeys = nil
	return nil
}

func (h *hashJoinOp) Next() (*batch, error) {
	for !h.done {
		if err := h.ctx.Err(); err != nil {
			return nil, err
		}
		if h.cur == nil {
			b, err := h.probe.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			if !h.built {
				if err := h.buildTable(); err != nil {
					return nil, err
				}
				if len(h.order) == 0 {
					break
				}
			}
			h.cur, h.ri, h.mi = b, 0, 0
			h.ids = h.index.assign(b, h.probeOffs, false, h.ids[:0])
		}
		ps, bs := h.probeSel[:0], h.buildSel[:0]
		for h.ri < len(h.ids) && len(ps) < batchRows {
			id := h.ids[h.ri]
			if id < 0 {
				h.ri++
				continue
			}
			matches := h.order[h.starts[id]+int32(h.mi) : h.starts[id+1]]
			if room := batchRows - len(ps); len(matches) > room {
				matches = matches[:room]
				h.mi += room
			} else {
				h.mi = 0
			}
			for _, row := range matches {
				ps = append(ps, h.cur.sel[h.ri])
				bs = append(bs, row)
			}
			if h.mi == 0 {
				h.ri++
			}
		}
		h.probeSel, h.buildSel = ps, bs
		cur := h.cur
		if h.ri == len(h.ids) {
			h.cur = nil
		}
		if len(ps) == 0 {
			continue
		}
		for c := range h.out.cols {
			src, rows := cur.cols[c], ps
			if c >= h.buildLo && c < h.buildHi {
				src, rows = h.bcols[c], bs
			}
			if src == nil {
				h.out.cols[c] = nil
				continue
			}
			col := h.out.cols[c][:0]
			for _, r := range rows {
				col = append(col, src[r])
			}
			h.out.cols[c] = col
		}
		h.out.sel = identitySel(len(ps))
		return &h.out, nil
	}
	h.done = true
	return nil, io.EOF
}

func (h *hashJoinOp) Close() error {
	err := h.probe.Close()
	if !h.built {
		h.build.Close()
	}
	return err
}

// projectOp re-references the selected columns: no cell moves.
type projectOp struct {
	src  iter
	offs []int
	out  batch
}

func (p *projectOp) Next() (*batch, error) {
	b, err := p.src.Next()
	if err != nil {
		return nil, err
	}
	for i, off := range p.offs {
		p.out.cols[i] = b.cols[off]
	}
	p.out.sel, p.out.tight = b.sel, b.tight
	return &p.out, nil
}

func (p *projectOp) Close() error { return p.src.Close() }

// chunks hands a blocking operator's finished result upward, batchRows
// rows at a time: order names the rows of cols to emit, in order.
type chunks struct {
	cols  [][]string
	order []int32
	out   batch
}

func (c *chunks) next() (*batch, error) {
	if len(c.order) == 0 {
		return nil, io.EOF
	}
	n := min(len(c.order), batchRows)
	c.out = batch{cols: c.cols, sel: c.order[:n], tight: true}
	c.order = c.order[n:]
	return &c.out, nil
}

// aggSpec is one aggregate output.
type aggSpec struct {
	agg     string // count, sum, avg, min, max
	off     int    // source offset (-1 for count(*))
	numeric bool
	isInt   bool
}

// groupOut maps one output column to a group-key slot or an aggregate.
type groupOut struct {
	isAgg bool
	slot  int // index into the grouping keys or aggs
}

// aggAcc accumulates one aggregate for every group, indexed by group
// id. Only the vectors its kind uses grow.
type aggAcc struct {
	aggSpec
	count []int64
	sumI  []int64
	sumF  []float64
	// min/max: the best cell so far, parsed once. A best taken from the
	// batch in hand aliases it until the batch ends, when every such
	// group (stale) gets its own copy.
	best    []string
	bestKey []numKey
	seen    []bool
	aliased []bool
	stale   []int32
}

func (a *aggAcc) grow(n int) {
	switch a.agg {
	case "min", "max":
		for len(a.best) < n {
			a.best = append(a.best, "")
			a.bestKey = append(a.bestKey, numKey{})
			a.seen = append(a.seen, false)
			a.aliased = append(a.aliased, false)
		}
	default:
		for len(a.count) < n {
			a.count = append(a.count, 0)
			a.sumI = append(a.sumI, 0)
			a.sumF = append(a.sumF, 0)
		}
	}
}

// add feeds b's live rows, whose group ids are gids, to the aggregate.
// Empty cells feed nothing.
func (a *aggAcc) add(b *batch, gids []int32) {
	if a.off < 0 { // count(*)
		for _, g := range gids {
			a.count[g]++
		}
		return
	}
	col := b.cols[a.off]
	for k, r := range b.sel {
		v, g := col[r], gids[k]
		if v == "" {
			continue
		}
		switch a.agg {
		case "count":
			a.count[g]++
		case "sum", "avg":
			if a.isInt {
				if n, err := strconv.ParseInt(v, 10, 64); err == nil {
					a.sumI[g] += n
					a.count[g]++
				}
			} else if f, err := strconv.ParseFloat(v, 64); err == nil {
				a.sumF[g] += f
				a.count[g]++
			}
		default: // min, max
			key := parseKey(v, a.numeric)
			if a.seen[g] {
				c := compareKeyed(v, a.best[g], key, a.bestKey[g])
				if c == 0 || (c < 0) != (a.agg == "min") {
					continue
				}
			}
			a.best[g], a.bestKey[g], a.seen[g] = v, key, true
			if !a.aliased[g] {
				a.aliased[g] = true
				a.stale = append(a.stale, g)
			}
		}
	}
	for _, g := range a.stale {
		a.best[g], a.aliased[g] = strings.Clone(a.best[g]), false
	}
	a.stale = a.stale[:0]
}

// render formats group g's final value.
func (a *aggAcc) render(g int) string {
	switch a.agg {
	case "count":
		return strconv.FormatInt(a.count[g], 10)
	case "sum":
		if a.count[g] == 0 {
			return ""
		}
		if a.isInt {
			return strconv.FormatInt(a.sumI[g], 10)
		}
		return strconv.FormatFloat(a.sumF[g], 'g', -1, 64)
	case "avg":
		if a.count[g] == 0 {
			return ""
		}
		total := a.sumF[g]
		if a.isInt {
			total = float64(a.sumI[g])
		}
		return strconv.FormatFloat(total/float64(a.count[g]), 'g', -1, 64)
	default: // min, max
		return a.best[g]
	}
}

// groupOp hash-aggregates the input, emitting groups in first-seen
// order (deterministic: the input order is deterministic). A query with
// aggregates but no GROUP BY emits exactly one row, even over empty
// input. The key index holds the only copy of each group's key cells.
type groupOp struct {
	ctx       context.Context
	src       iter
	groupOffs []int
	aggs      []aggAcc
	outs      []groupOut

	built bool
	index keyIndex
	gids  []int32
	res   chunks
}

func (g *groupOp) run() error {
	groups := 0
	for {
		if err := g.ctx.Err(); err != nil {
			return err
		}
		b, err := g.src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if len(g.groupOffs) == 0 {
			groups = 1
			g.gids = append(g.gids[:0], make([]int32, len(b.sel))...)
		} else {
			g.gids = g.index.assign(b, g.groupOffs, true, g.gids[:0])
			groups = len(g.index.keys)
		}
		for i := range g.aggs {
			g.aggs[i].grow(groups)
			g.aggs[i].add(b, g.gids)
		}
	}
	if len(g.groupOffs) == 0 && groups == 0 {
		// Global aggregate over empty input: one all-defaults group.
		groups = 1
		for i := range g.aggs {
			g.aggs[i].grow(groups)
		}
	}
	g.res.order = iota32(0, groups)
	g.res.cols = make([][]string, len(g.outs))
	var cells []string
	for i, o := range g.outs {
		col := make([]string, groups)
		for gid := range col {
			switch {
			case o.isAgg:
				col[gid] = g.aggs[o.slot].render(gid)
			case len(g.groupOffs) == 1:
				col[gid] = g.index.keys[gid]
			default:
				cells = splitKey(g.index.keys[gid], len(g.groupOffs), cells[:0])
				col[gid] = cells[o.slot]
			}
		}
		g.res.cols[i] = col
	}
	return nil
}

func (g *groupOp) Next() (*batch, error) {
	if !g.built {
		g.built = true
		if err := g.run(); err != nil {
			return nil, err
		}
	}
	return g.res.next()
}

func (g *groupOp) Close() error { return g.src.Close() }

// sortKey is one ORDER BY key over output columns.
type sortKey struct {
	col     int
	desc    bool
	numeric bool
}

// sortOp materializes the input (cloned, column by column), parses each
// numeric key cell once, and stably sorts a permutation of the rows.
type sortOp struct {
	ctx   context.Context
	src   iter
	keys  []sortKey
	built bool
	res   chunks
}

func (s *sortOp) run() error {
	nums := make([][]numKey, len(s.keys))
	for {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		b, err := s.src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if s.res.cols == nil {
			s.res.cols = make([][]string, len(b.cols))
		}
		for c, col := range b.cols {
			s.res.cols[c] = appendCloned(s.res.cols[c], col, b.sel)
		}
		for i, k := range s.keys {
			if k.numeric {
				for _, r := range b.sel {
					nums[i] = append(nums[i], parseKey(b.cols[k.col][r], true))
				}
			}
		}
	}
	if s.res.cols == nil {
		return nil
	}
	perm := iota32(0, len(s.res.cols[0]))
	sort.SliceStable(perm, func(a, b int) bool {
		ra, rb := perm[a], perm[b]
		for i, k := range s.keys {
			var ka, kb numKey
			if k.numeric {
				ka, kb = nums[i][ra], nums[i][rb]
			}
			c := compareKeyed(s.res.cols[k.col][ra], s.res.cols[k.col][rb], ka, kb)
			if k.desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	s.res.order = perm
	return nil
}

func (s *sortOp) Next() (*batch, error) {
	if !s.built {
		s.built = true
		if err := s.run(); err != nil {
			return nil, err
		}
	}
	return s.res.next()
}

func (s *sortOp) Close() error { return s.src.Close() }

// topKRow is one heap entry: an owned copy of the row, its key cells
// parsed once, and its input sequence number — the final ordering key
// that reproduces a stable sort's tie handling.
type topKRow struct {
	row  []string
	keys []numKey
	seq  int
}

// topKOp keeps the k first rows of the sorted output in a bounded heap —
// ORDER BY + LIMIT without materializing the input. The heap is a
// max-heap under (sort keys, input sequence): the root is the worst
// retained row, and once the heap is full a candidate is compared with
// the root on its key cells alone, in place in the batch; only a row
// that evicts the root is copied. The input sequence number is the last
// ordering key, so the emitted rows are exactly a stable full sort's
// first k.
type topKOp struct {
	ctx   context.Context
	src   iter
	keys  []sortKey
	k     int
	heap  []topKRow
	built bool
	res   chunks
}

// after reports a ordering strictly after b.
func (t *topKOp) after(a, b *topKRow) bool {
	for i, k := range t.keys {
		c := compareKeyed(a.row[k.col], b.row[k.col], a.keys[i], b.keys[i])
		if k.desc {
			c = -c
		}
		if c != 0 {
			return c > 0
		}
	}
	return a.seq > b.seq
}

// evicts reports whether row r of b orders strictly before the root. A
// tie keeps the root: every retained row arrived earlier.
func (t *topKOp) evicts(b *batch, r int32) bool {
	root := &t.heap[0]
	for i, k := range t.keys {
		v := b.cols[k.col][r]
		c := compareKeyed(v, root.row[k.col], parseKey(v, root.keys[i].ok), root.keys[i])
		if k.desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return false
}

// down restores the heap below i.
func (t *topKOp) down(i int) {
	for {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(t.heap); c++ {
			if t.after(&t.heap[c], &t.heap[worst]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}

func (t *topKOp) run() error {
	seq := 0
	for {
		if err := t.ctx.Err(); err != nil {
			return err
		}
		b, err := t.src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for _, r := range b.sel {
			seq++
			full := len(t.heap) == t.k
			if full && !t.evicts(b, r) {
				continue
			}
			e := topKRow{row: make([]string, len(b.cols)), keys: make([]numKey, len(t.keys)), seq: seq}
			for c, col := range b.cols {
				if col != nil {
					e.row[c] = strings.Clone(col[r])
				}
			}
			for i, k := range t.keys {
				e.keys[i] = parseKey(e.row[k.col], k.numeric)
			}
			if full {
				t.heap[0] = e
				t.down(0)
				continue
			}
			t.heap = append(t.heap, e)
			for i := len(t.heap) - 1; i > 0 && t.after(&t.heap[i], &t.heap[(i-1)/2]); i = (i - 1) / 2 {
				t.heap[i], t.heap[(i-1)/2] = t.heap[(i-1)/2], t.heap[i]
			}
		}
	}
	sort.Slice(t.heap, func(a, b int) bool { return t.after(&t.heap[b], &t.heap[a]) })
	if len(t.heap) > 0 {
		t.res.cols = make([][]string, len(t.heap[0].row))
		for c := range t.res.cols {
			for _, e := range t.heap {
				t.res.cols[c] = append(t.res.cols[c], e.row[c])
			}
		}
		t.res.order = iota32(0, len(t.heap))
	}
	return nil
}

func (t *topKOp) Next() (*batch, error) {
	if !t.built {
		t.built = true
		if t.k > 0 {
			if err := t.run(); err != nil {
				return nil, err
			}
		}
	}
	return t.res.next()
}

func (t *topKOp) Close() error { return t.src.Close() }

// limitOp stops after n rows, cutting the batch that crosses the limit
// and pulling nothing after it.
type limitOp struct {
	src  iter
	left int
	out  batch
}

func (l *limitOp) Next() (*batch, error) {
	if l.left <= 0 {
		return nil, io.EOF
	}
	b, err := l.src.Next()
	if err != nil {
		return nil, err
	}
	if len(b.sel) > l.left {
		l.out = batch{cols: b.cols, sel: b.sel[:l.left]}
		b = &l.out
	}
	l.left -= len(b.sel)
	return b, nil
}

func (l *limitOp) Close() error { return l.src.Close() }
