package lake

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"testing"

	"datamaran/internal/core"
	"datamaran/internal/parser"
	"datamaran/internal/relational"
	"datamaran/internal/semtype"
	"datamaran/internal/template"
)

// refSegWriter is the segment writer the store had before it encoded
// cells from spans: denormalized rows arrive as []string
// (relational.Denormalizer.Row), are buffered column by column, and a
// full block's zone maps, kinds and distinct sets are computed from those
// strings before its cells are encoded. It is the oracle segWriter is held
// to (FuzzSegmentWriter): the same rows must make the same segment bytes,
// kinds and distinct counts.
type refSegWriter struct {
	w        *bufio.Writer
	ncols    int
	cols     [][]string
	colBuf   [][]byte
	kinds    []semtype.Kind
	rows     int
	blocks   []footBlock
	zones    []colZone
	distinct []map[string]struct{}
	foot     []byte
}

func newRefSegWriter(w io.Writer, ncols int) *refSegWriter {
	return &refSegWriter{
		w: bufio.NewWriter(w), ncols: ncols,
		cols: make([][]string, ncols), colBuf: make([][]byte, ncols), distinct: make([]map[string]struct{}, ncols),
	}
}

func (sw *refSegWriter) putUvarint(v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := sw.w.Write(buf[:n])
	return err
}

func (sw *refSegWriter) buffered() int {
	if sw.ncols == 0 {
		return 0
	}
	return len(sw.cols[0])
}

// add buffers one row, flushing a block when full.
func (sw *refSegWriter) add(row []string) error {
	for c := 0; c < sw.ncols; c++ {
		sw.cols[c] = append(sw.cols[c], row[c])
	}
	sw.rows++
	if sw.buffered() >= segBlockRows {
		return sw.flushBlock()
	}
	return nil
}

// refBlockZones computes the zone maps of one buffered block.
func refBlockZones(cols [][]string, zones []colZone) footBlock {
	fb := footBlock{rows: len(cols[0]), cols: zones}
	for c, vals := range cols {
		z := colZone{allNumeric: true}
		for i, v := range vals {
			if i == 0 || v < z.lexMin {
				z.lexMin = v
			}
			if i == 0 || v > z.lexMax {
				z.lexMax = v
			}
			if !z.allNumeric {
				continue
			}
			f, ok := zoneNumber(v)
			if !ok {
				z.allNumeric = false
				continue
			}
			if i == 0 || f < z.numMin {
				z.numMin = f
			}
			if i == 0 || f > z.numMax {
				z.numMax = f
			}
		}
		fb.cols[c] = z
	}
	return fb
}

// observe folds one block's values into the running kinds and the
// distinct sets.
func (sw *refSegWriter) observe(cols [][]string) {
	if len(cols) > 0 && len(cols[0]) > 0 {
		first := sw.kinds == nil
		if first {
			sw.kinds = make([]semtype.Kind, len(cols))
		}
		for c, vals := range cols {
			if k := semtype.ClassifyValues(vals); first {
				sw.kinds[c] = k
			} else {
				sw.kinds[c] = semtype.MergeKinds(sw.kinds[c], k)
			}
		}
	}
	for c, vals := range cols {
		m := sw.distinct[c]
		if m == nil {
			m = make(map[string]struct{})
			sw.distinct[c] = m
		}
		for i, v := range vals {
			if len(m) >= segDistinctCap {
				break
			}
			if i > 0 && v == vals[i-1] {
				continue
			}
			m[v] = struct{}{}
		}
	}
}

func (sw *refSegWriter) flushBlock() error {
	n := sw.buffered()
	if n == 0 {
		return nil
	}
	sw.observe(sw.cols)
	lo := len(sw.zones)
	sw.zones = slices.Grow(sw.zones, sw.ncols)[:lo+sw.ncols]
	sw.blocks = append(sw.blocks, refBlockZones(sw.cols, sw.zones[lo:lo+sw.ncols:lo+sw.ncols]))
	var tmp [binary.MaxVarintLen64]byte
	for c := 0; c < sw.ncols; c++ {
		buf := sw.colBuf[c][:0]
		for _, v := range sw.cols[c] {
			w := binary.PutUvarint(tmp[:], uint64(len(v)))
			buf = append(buf, tmp[:w]...)
			buf = append(buf, v...)
		}
		sw.colBuf[c] = buf
		sw.cols[c] = sw.cols[c][:0]
	}
	if err := sw.putUvarint(uint64(n)); err != nil {
		return err
	}
	for _, col := range sw.colBuf {
		if err := sw.putUvarint(uint64(len(col))); err != nil {
			return err
		}
	}
	for _, col := range sw.colBuf {
		if _, err := sw.w.Write(col); err != nil {
			return err
		}
	}
	return nil
}

// finish flushes the residual block and closes the file with the stats
// footer, and returns the folded kinds, the row count and the distinct
// estimates.
func (sw *refSegWriter) finish() ([]semtype.Kind, int, []int, error) {
	if err := sw.flushBlock(); err != nil {
		return nil, 0, nil, err
	}
	dist := make([]int, sw.ncols)
	for c, m := range sw.distinct {
		dist[c] = len(m)
	}
	if err := sw.putUvarint(0); err != nil {
		return nil, 0, nil, err
	}
	sw.foot = appendFooter(sw.foot[:0], sw.blocks, dist)
	if _, err := sw.w.Write(sw.foot); err != nil {
		return nil, 0, nil, err
	}
	var tr [8]byte
	binary.LittleEndian.PutUint64(tr[:], uint64(len(sw.foot)))
	if _, err := sw.w.Write(tr[:]); err != nil {
		return nil, 0, nil, err
	}
	kinds := sw.kinds
	if kinds == nil {
		kinds = make([]semtype.Kind, sw.ncols)
		for i := range kinds {
			kinds[i] = semtype.KindString
		}
	}
	return kinds, sw.rows, dist, sw.w.Flush()
}

// refAddRecords feeds recs' rows of one record type through the oracle,
// each row built by relational.Denormalizer.Row.
func refAddRecords(sw *refSegWriter, st *template.Node, recs []core.RecordOut, typeID int) error {
	dn := relational.NewDenormalizer(st)
	var row []string
	for i := range recs {
		if recs[i].TypeID != typeID {
			continue
		}
		row = dn.Row(recs[i].Fields, row)
		if err := sw.add(row); err != nil {
			return err
		}
	}
	return nil
}

// addRow writes one row of cells through the production writer.
func addRow(sw *segWriter, row []string) error {
	cols := make([][]string, len(row))
	for c, v := range row {
		cols[c] = []string{v}
	}
	return sw.addColumns(cols, 1)
}

// fuzzTemplate builds the template FuzzSegmentWriter writes rows of:
// ncols fields in one struct, the k starting at column lo the body of an
// array that repeats them separated by sep.
func fuzzTemplate(ncols, lo, k int, sep byte) *template.Node {
	field := func(nodes []*template.Node, n int) []*template.Node {
		for i := 0; i < n; i++ {
			nodes = append(nodes, template.Field(), template.Lit(","))
		}
		return nodes
	}
	top := field(nil, lo)
	if k > 0 {
		top = append(top, template.Array(field(nil, k), sep, sep+1))
	}
	return template.Struct(field(top, ncols-lo-k)...)
}

// FuzzSegmentWriter holds the span writer to the []string oracle: a
// record's field occurrences over a window, written through addSpans,
// must make the segment bytes, kinds, row count and distinct counts that
// the row relational.Denormalizer.Row builds of the same record makes
// through refSegWriter. The fuzz input shapes the table — its width,
// which columns repeat inside an array and on which separator — and is
// itself the pool the values are cut from, so cells hold any bytes (the
// separator, non-UTF-8) and may be empty; the row count crosses block
// boundaries, repetition counts include zero, and unique mode gives every
// row its own values, past segDistinctCap.
func FuzzSegmentWriter(f *testing.F) {
	f.Add([]byte("GET /a 200 host-1 12.5"), uint8(4), uint8(0), uint8(1), byte(' '), uint16(segBlockRows), false)
	f.Add([]byte("a,b;c\xff\xfe,,9"), uint8(5), uint8(2), uint8(2), byte(','), uint16(segBlockRows+1), false)
	f.Add([]byte("x1 x2 x3"), uint8(3), uint8(0), uint8(3), byte(' '), uint16(segDistinctCap+segBlockRows/2), true)
	f.Add([]byte{}, uint8(2), uint8(1), uint8(1), byte(';'), uint16(2*segBlockRows-1), false)
	f.Fuzz(func(t *testing.T, pool []byte, width, lo, k uint8, sep byte, nrows uint16, unique bool) {
		ncols := 1 + int(width)%6
		arrLo := int(lo) % ncols
		arrK := int(k) % (ncols - arrLo + 1)
		if sep == 0xff {
			sep-- // the array's terminator is sep+1
		}
		tpl := fuzzTemplate(ncols, arrLo, arrK, sep)
		rows := int(nrows) % (segDistinctCap + 2*segBlockRows)
		value := func(r, c, j int) []byte {
			var v []byte
			if len(pool) > 0 {
				off := (r*7 + c*3 + j) % len(pool)
				v = pool[off:min(len(pool), off+(r+c+j)%5)]
			}
			if unique {
				v = fmt.Appendf(v[:len(v):len(v)], "%d", r)
			}
			return v
		}
		var recs []core.RecordOut
		var window []byte
		type spanRecord struct{ lo, hi int }
		var occs []parser.FieldOcc
		var spans []spanRecord
		for r := 0; r < rows; r++ {
			rec := core.RecordOut{TypeID: 0, StartLine: r}
			first := len(occs)
			add := func(c, j int) {
				v := value(r, c, j)
				occs = append(occs, parser.FieldOcc{Col: c, Rep: j, Start: len(window), End: len(window) + len(v)})
				window = append(window, v...)
				rec.Fields = append(rec.Fields, core.FieldValue{Column: c, Repetition: j, Value: string(v)})
			}
			for c := 0; c < arrLo; c++ {
				add(c, 0)
			}
			if arrK > 0 {
				reps := r % 4
				if len(pool) > 0 {
					reps = (r + int(pool[r%len(pool)])) % 4
				}
				for j := 0; j < reps; j++ {
					for c := arrLo; c < arrLo+arrK; c++ {
						add(c, j)
					}
				}
			}
			for c := arrLo + arrK; c < ncols; c++ {
				add(c, 0)
			}
			recs = append(recs, rec)
			spans = append(spans, spanRecord{first, len(occs)})
		}

		var got bytes.Buffer
		sw := newSegWriter(&got, ncols)
		defer sw.release()
		seps := relational.ArraySeps(tpl)
		for _, s := range spans {
			if err := sw.addSpans(window, occs[s.lo:s.hi], seps); err != nil {
				t.Fatal(err)
			}
		}
		gotKinds, gotRows, gotDist, err := sw.finish()
		if err != nil {
			t.Fatal(err)
		}

		var want bytes.Buffer
		ref := newRefSegWriter(&want, ncols)
		if err := refAddRecords(ref, tpl, recs, 0); err != nil {
			t.Fatal(err)
		}
		wantKinds, wantRows, wantDist, err := ref.finish()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s, %d rows: the span writer wrote %d bytes, the oracle %d; they part at byte %d",
				tpl, rows, got.Len(), want.Len(), commonPrefix(got.Bytes(), want.Bytes()))
		}
		if !slices.Equal(gotKinds, wantKinds) || gotRows != wantRows || !slices.Equal(gotDist, wantDist) {
			t.Fatalf("%s: span writer kinds %v rows %d distincts %v, oracle %v %d %v",
				tpl, gotKinds, gotRows, gotDist, wantKinds, wantRows, wantDist)
		}
	})
}

// commonPrefix is the length of the longest common prefix of a and b.
func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}
