// Package ptable implements probabilistic relations: ordered collections of
// tuples whose cells carry attribute-level uncertainty (package uncertain).
// A PTable starts as a deterministic snapshot of a dirty table and is
// gradually transformed into a probabilistic dataset as cleaning applies
// per-query deltas in place (§4, §6 of the paper). A tuple is identified by
// its row position: provenance is kept per cell (every cell keeps its
// original value), not per tuple.
//
// # Segmented copy-on-write storage
//
// Tuple pointers live in fixed-size immutable segments of SegmentSize rows.
// ApplyCOW clones only the segments a delta touches and shares the rest by
// pointer, so publishing a new epoch generation costs O(delta · SegmentSize)
// in copies instead of O(n): a three-tuple fix on a 10M-row relation copies
// a handful of 4KB pointer blocks, not 80MB of tuple pointers. Segments also
// carry maintained dirty-tuple and candidate-footprint counters, making
// DirtyTuples and CandidateFootprint O(n/SegmentSize) sums rather than full
// scans. Positional access goes through At(i) and the Rows iterator; batch
// operators iterate segment-natively instead — a Cursor amortizes the
// positional decode across a segment, Seg exposes a segment's tuple block as
// a flat slice, and ScanColOrig extracts one column's values in segment runs.
// The raw tuple slice of earlier versions no longer exists.
//
// # Zone maps
//
// Segments snapshotted by FromTable carry one Zone per column: bounds over
// the column's certain cells plus an Unsure bitmap of the cells the bound
// says nothing about (uncertain ones, NaN, a number of the other numeric
// kind). Apply and ApplyCOW keep zones current in O(delta) — an uncertain
// result sets its bit, a certain one widens the bound, nothing narrows — so
// a scan can rule out a segment's bounded cells with two comparisons and
// test only the set bits. Relations built by Append carry no zones.
package ptable

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"daisy/internal/dc"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

// Tuple is one probabilistic row.
type Tuple struct {
	// ID is the tuple's row position within its relation; Append enforces
	// it, and copy-on-write generations and clones keep it.
	ID int64
	// Cells is positionally aligned with the table schema.
	Cells []uncertain.Cell
}

// Clone deep-copies the tuple.
func (t *Tuple) Clone() *Tuple {
	out := &Tuple{ID: t.ID, Cells: make([]uncertain.Cell, len(t.Cells))}
	for i := range t.Cells {
		out.Cells[i] = t.Cells[i].Clone()
	}
	return out
}

// Dirty reports whether any cell of the tuple is uncertain.
func (t *Tuple) Dirty() bool {
	for i := range t.Cells {
		if !t.Cells[i].IsCertain() {
			return true
		}
	}
	return false
}

// footprint is the tuple's candidate-footprint contribution: candidate plus
// range counts over its uncertain cells (the "p" of the update-cost term).
func (t *Tuple) footprint() int {
	n := 0
	for i := range t.Cells {
		if !t.Cells[i].IsCertain() {
			n += len(t.Cells[i].Candidates) + len(t.Cells[i].Ranges)
		}
	}
	return n
}

// Segment geometry. SegmentSize is the copy-on-write clone unit: small
// enough that a sparse delta's publication cost stays near the delta (a
// segment clone is a SegmentSize pointer copy, 4KB), large enough that the
// per-relation segment directory stays ~0.2% of a flat tuple-pointer slice.
const (
	segShift = 9
	// SegmentSize is the number of tuples per storage segment.
	SegmentSize = 1 << segShift
	segMask     = SegmentSize - 1
)

// segment is one fixed-size block of tuple pointers plus maintained
// counters. Every segment except a relation's last holds exactly
// SegmentSize tuples, so position arithmetic is a shift and a mask.
type segment struct {
	tuples []*Tuple
	// dirty counts member tuples with at least one uncertain cell; cand sums
	// their candidate footprints. Maintained by Apply/ApplyCOW/Append.
	dirty int
	cand  int
	// zones holds one Zone per column, maintained by Apply/ApplyCOW; nil
	// (segments built by Append) means no column rules any row out.
	zones []Zone
}

// clone copies the segment for a copy-on-write mutation.
func (s *segment) clone() *segment {
	return &segment{tuples: append([]*Tuple(nil), s.tuples...), dirty: s.dirty, cand: s.cand,
		zones: slices.Clone(s.zones)}
}

// Zone summarizes one column of one segment for predicate pruning. Its
// bounds are the minimum and maximum of the column's certain cells whose
// Unsure bit is clear. A set bit marks a cell the bounds say nothing
// about: an uncertain cell (its candidates and ranges may span the whole
// domain), a NaN (which value.Compare treats as equal to every number), or a
// number of the other numeric kind than the bounded ones (Int and Float
// compare through float64, which is not transitive across the two kinds for
// large integers). Bounds only ever widen and bits only ever get set, so a
// zone stays sound under Apply and ApplyCOW without a rescan.
type Zone struct {
	min, max value.Value
	// Unsure holds one bit per segment offset: bit off&63 of word off>>6.
	Unsure [SegmentSize / 64]uint64
	// bounded reports whether min/max hold a value, i.e. some cell is bounded.
	bounded bool
	// num is the numeric kind (Int or Float) of the bounded numbers, Null
	// before the first one.
	num value.Kind
}

// setUnsure marks the cell at segment offset off as unbounded.
func (z *Zone) setUnsure(off int) { z.Unsure[off>>6] |= 1 << (off & 63) }

// isUnsure reports whether the cell at segment offset off is unbounded.
func (z *Zone) isUnsure(off int) bool { return z.Unsure[off>>6]&(1<<(off&63)) != 0 }

// add folds the cell at segment offset off into the zone.
func (z *Zone) add(off int, c *uncertain.Cell) {
	if c.IsCertain() {
		z.widen(off, c.Orig)
	} else {
		z.setUnsure(off)
	}
}

// widen folds the value of a certain cell at segment offset off.
func (z *Zone) widen(off int, v value.Value) {
	if k := v.Kind(); k == value.Int || k == value.Float {
		if k == value.Float && math.IsNaN(v.Float()) || z.num != value.Null && z.num != k {
			z.setUnsure(off)
			return
		}
		z.num = k
	}
	switch {
	case !z.bounded:
		z.min, z.max, z.bounded = v, v, true
	case v.Compare(z.min) < 0:
		z.min = v
	case v.Compare(z.max) > 0:
		z.max = v
	}
}

// fold builds the zone of column j over a snapshot's rows. A column that is
// all Ints, or all non-NaN Floats — the common case — folds as int64 or
// float64, with no value.Compare per cell: every snapshot pays this fold.
// Any other column goes through widen.
func (z *Zone) fold(rows []table.Row, j int) {
	switch first := rows[0][j]; first.Kind() {
	case value.Int:
		lo, hi := first.Int(), first.Int()
		i := 1
		for ; i < len(rows) && rows[i][j].Kind() == value.Int; i++ {
			x := rows[i][j].Int()
			lo, hi = min(lo, x), max(hi, x)
		}
		if i == len(rows) {
			z.min, z.max, z.bounded, z.num = value.NewInt(lo), value.NewInt(hi), true, value.Int
			return
		}
	case value.Float:
		lo, hi := first.Float(), first.Float()
		i := 0
		for ; i < len(rows) && rows[i][j].Kind() == value.Float; i++ {
			x := rows[i][j].Float()
			if math.IsNaN(x) {
				break
			}
			lo, hi = min(lo, x), max(hi, x)
		}
		if i == len(rows) {
			z.min, z.max, z.bounded, z.num = value.NewFloat(lo), value.NewFloat(hi), true, value.Float
			return
		}
	}
	for i := range rows {
		z.widen(i, rows[i][j])
	}
}

// VerifyZones checks every zone against its segment's cells: a cell whose
// Unsure bit is clear must be certain, not NaN, within the bounds, and a
// number of the bounded numbers' kind. It returns the first violation, or
// nil. Tests call it after every mutation.
func (p *PTable) VerifyZones() error {
	for si, s := range p.segs {
		for j := range s.zones {
			z := &s.zones[j]
			for off, t := range s.tuples {
				c := &t.Cells[j]
				if z.isUnsure(off) {
					continue
				}
				v := c.Orig
				kind := v.Kind()
				switch {
				case !c.IsCertain():
					return fmt.Errorf("segment %d column %d offset %d: uncertain cell without its unsure bit", si, j, off)
				case !z.bounded || v.Compare(z.min) < 0 || v.Compare(z.max) > 0:
					return fmt.Errorf("segment %d column %d offset %d: %s outside [%s, %s]", si, j, off, v, z.min, z.max)
				case kind == value.Float && math.IsNaN(v.Float()):
					return fmt.Errorf("segment %d column %d offset %d: NaN without its unsure bit", si, j, off)
				case (kind == value.Int || kind == value.Float) && kind != z.num:
					return fmt.Errorf("segment %d column %d offset %d: %s bounded among %s numbers", si, j, off, kind, z.num)
				}
			}
		}
	}
	return nil
}

// Excludes reports whether no bounded cell can satisfy "cell op c", so that
// only the cells with a set Unsure bit may. Bounded cells are ordered by
// value.Compare among themselves, and Compare(v, c) never decreases as v
// grows (for a NaN c too, which compares equal to every number), so the
// bounds decide every op.
func (z *Zone) Excludes(op dc.Op, c value.Value) bool {
	if !z.bounded {
		return true
	}
	switch op {
	case dc.Eq:
		return c.Compare(z.min) < 0 || c.Compare(z.max) > 0
	case dc.Neq:
		return z.min.Compare(c) == 0 && z.max.Compare(c) == 0
	case dc.Lt:
		return z.min.Compare(c) >= 0
	case dc.Leq:
		return z.min.Compare(c) > 0
	case dc.Gt:
		return z.max.Compare(c) <= 0
	case dc.Geq:
		return z.max.Compare(c) < 0
	}
	return false
}

// PTable is a probabilistic relation: tuples numbered 0..Len()-1 by row
// position.
type PTable struct {
	Name   string
	Schema *schema.Schema

	segs []*segment
	n    int

	// shared marks relations participating in copy-on-write sharing — both
	// ApplyCOW results and their receivers, which share segment structs.
	// In-place growth or mutation (Append, Apply) would corrupt every
	// generation at once and panics instead. Atomic because concurrent
	// snapshot readers may ApplyCOW the same receiver generation at once.
	shared atomic.Bool

	// hint is the expected number of upcoming appends (set by Reserve); it
	// sizes new segments so reserved bulk loads allocate each segment once.
	hint int
}

// New creates an empty probabilistic relation.
func New(name string, s *schema.Schema) *PTable {
	return &PTable{Name: name, Schema: s}
}

// FromTable snapshots a deterministic table; tuple IDs are row positions.
// Tuple structs and cells are batch-allocated per segment — snapshotting is
// the first thing every session does to every relation, and segment-aligned
// batches keep the sequential hot path a few allocations per SegmentSize rows
// while letting ApplyCOW share untouched segments wholesale. The same loop
// builds each segment's zones.
func FromTable(t *table.Table) *PTable {
	n := t.Len()
	p := &PTable{Name: t.Name, Schema: t.Schema, n: n}
	width := t.Schema.Len()
	p.segs = make([]*segment, 0, (n+segMask)>>segShift)
	for lo := 0; lo < n; lo += SegmentSize {
		hi := lo + SegmentSize
		if hi > n {
			hi = n
		}
		m := hi - lo
		tuples := make([]Tuple, m)
		ptrs := make([]*Tuple, m)
		cells := make([]uncertain.Cell, m*width)
		for i := 0; i < m; i++ {
			tc := cells[i*width : (i+1)*width : (i+1)*width]
			for j, v := range t.Rows[lo+i] {
				tc[j] = uncertain.Certain(v)
			}
			tuples[i] = Tuple{ID: int64(lo + i), Cells: tc}
			ptrs[i] = &tuples[i]
		}
		zones := make([]Zone, width)
		for j := range zones {
			zones[j].fold(t.Rows[lo:hi], j)
		}
		p.segs = append(p.segs, &segment{tuples: ptrs, zones: zones})
	}
	return p
}

// Append adds a tuple, whose ID must be its position: the relation's
// current length. Append panics on any other ID, and on a relation that has
// participated in copy-on-write (an ApplyCOW result or receiver): its
// segments are shared across epoch generations, so growing it in place would
// corrupt every generation at once.
func (p *PTable) Append(t *Tuple) {
	if p.shared.Load() {
		panic("ptable: Append on a copy-on-write generation (ApplyCOW results and receivers share segments across epochs); Clone it first")
	}
	if t.ID != int64(p.n) {
		panic(fmt.Sprintf("ptable: Append of tuple ID %d at position %d (a tuple's ID is its position)", t.ID, p.n))
	}
	var seg *segment
	if len(p.segs) > 0 {
		if last := p.segs[len(p.segs)-1]; len(last.tuples) < SegmentSize {
			seg = last
			seg.zones = nil // Append does not maintain zones
		}
	}
	if seg == nil {
		seg = &segment{}
		if p.hint > 0 {
			c := p.hint
			if c > SegmentSize {
				c = SegmentSize
			}
			seg.tuples = make([]*Tuple, 0, c)
		}
		p.segs = append(p.segs, seg)
	}
	seg.tuples = append(seg.tuples, t)
	if t.Dirty() {
		seg.dirty++
	}
	seg.cand += t.footprint()
	p.n++
	if p.hint > 0 {
		p.hint--
	}
}

// Reserve pre-sizes the relation for n upcoming appends.
func (p *PTable) Reserve(n int) {
	if n > p.hint {
		p.hint = n
	}
}

// Len returns the number of tuples.
func (p *PTable) Len() int { return p.n }

// At returns the tuple at position i.
func (p *PTable) At(i int) *Tuple {
	return p.segs[i>>segShift].tuples[i&segMask]
}

// SegOf returns the index of the storage segment holding row position i.
func SegOf(i int) int { return i >> segShift }

// Segments returns the number of storage segments.
func (p *PTable) Segments() int { return len(p.segs) }

// SegSpan returns the [lo, hi) row-position range covered by segment k.
func (p *PTable) SegSpan(k int) (lo, hi int) {
	lo = k << segShift
	return lo, lo + len(p.segs[k].tuples)
}

// Seg returns segment k's tuple block — the flat-slice view batch operators
// iterate instead of decoding positions one At(i) at a time. The slice is
// storage shared across copy-on-write generations: callers must treat it as
// strictly read-only.
func (p *PTable) Seg(k int) []*Tuple { return p.segs[k].tuples }

// SegDirty returns segment k's maintained count of tuples with at least one
// uncertain cell (tuples a cleaning delta has already touched).
func (p *PTable) SegDirty(k int) int { return p.segs[k].dirty }

// SegCand returns segment k's maintained candidate-footprint sum.
func (p *PTable) SegCand(k int) int { return p.segs[k].cand }

// SegZones returns segment k's per-column zones, indexed like the schema, or
// nil when the segment carries none. The zones are shared across
// copy-on-write generations: callers must treat them as read-only.
func (p *PTable) SegZones(k int) []Zone { return p.segs[k].zones }

// Cursor is a positional reader that caches the segment of the last accessed
// row, so a scan pays one segment-directory decode per SegmentSize rows
// instead of a shift+mask+double pointer chase per tuple. It reads the
// segment directory as of creation — exactly the snapshot semantics of the
// owning PTable generation, whose directory is immutable once shared.
// A Cursor is not safe for concurrent use; create one per goroutine (they
// are cheap: two words and a slice header).
type Cursor struct {
	segs   []*segment
	si     int
	tuples []*Tuple
}

// Cursor returns a segment-caching positional reader over the relation.
func (p *PTable) Cursor() Cursor {
	return Cursor{segs: p.segs, si: -1}
}

// At returns the tuple at position i. Sequential and segment-local access
// patterns hit the cached segment; crossing a segment boundary reloads it.
func (c *Cursor) At(i int) *Tuple {
	if si := i >> segShift; si != c.si {
		c.si = si
		c.tuples = c.segs[si].tuples
	}
	return c.tuples[i&segMask]
}

// ScanColOrig appends the original (provenance) values of column col over
// rows [lo, hi) to dst and returns it — the column-projected batch accessor:
// a rule touching two of twelve columns extracts just those cells in
// segment-sized runs instead of decoding every row positionally per cell.
func (p *PTable) ScanColOrig(dst []value.Value, col, lo, hi int) []value.Value {
	if hi > p.n {
		hi = p.n
	}
	for lo < hi {
		seg := p.segs[lo>>segShift]
		off := lo & segMask
		end := off + (hi - lo)
		if end > len(seg.tuples) {
			end = len(seg.tuples)
		}
		for _, t := range seg.tuples[off:end] {
			dst = append(dst, t.Cells[col].Orig)
		}
		lo += end - off
	}
	return dst
}

// Rows iterates the relation positionally, yielding (position, tuple) in
// row order — the replacement for ranging over a raw tuple slice.
func (p *PTable) Rows() iter.Seq2[int, *Tuple] {
	return func(yield func(int, *Tuple) bool) {
		i := 0
		for _, s := range p.segs {
			for _, t := range s.tuples {
				if !yield(i, t) {
					return
				}
				i++
			}
		}
	}
}

// Pos returns the row position of the tuple with the given ID — the ID
// itself — and whether the relation holds it.
func (p *PTable) Pos(id int64) (int, bool) {
	if id >= 0 && id < int64(p.n) {
		return int(id), true
	}
	return 0, false
}

// Cell returns the named cell of the tuple at position row.
func (p *PTable) Cell(row int, col string) *uncertain.Cell {
	return &p.At(row).Cells[p.Schema.MustIndex(col)]
}

// Clone deep-copies the relation.
func (p *PTable) Clone() *PTable {
	out := New(p.Name, p.Schema)
	out.Reserve(p.n)
	for _, t := range p.Rows() {
		out.Append(t.Clone())
	}
	return out
}

// ColCell is one replacement cell of a delta, tagged with its column index.
type ColCell struct {
	Col  int
	Cell uncertain.Cell
}

// Delta is a set of per-tuple cell replacements keyed by tuple ID (the
// tuple's row position), the
// isolated changes a cleaning operator produces for one query. Each tuple's
// replacements are a small slice, not a map: FD fixes touch one or two
// columns, and a slice of two entries costs one flat allocation where a
// per-tuple map costs a bucket array — on a clean pass repairing thousands
// of tuples the difference dominates the allocation profile.
type Delta struct {
	Table string
	Cells map[int64][]ColCell // tuple ID (row position) → replacement cells
	// block is the carve-from arena for per-tuple cell slices: a tuple's
	// first Set carves a zero-length, capacity-deltaTupleCells slice out of
	// it, so the common repair shape (two cells per tuple) appends in place
	// instead of allocating and regrowing a tiny slice per tuple.
	block []ColCell
}

// deltaTupleCells is the carved capacity per touched tuple — FD repair
// writes at most an lhs and an rhs cell per tuple; wider tuples fall back
// to ordinary append growth.
const deltaTupleCells = 2

// deltaBlockTuples caps the arena block size (in tuples) so a small delta
// does not allocate a huge block.
const deltaBlockTuples = 512

// NewDelta creates an empty delta for a relation.
func NewDelta(tableName string) *Delta {
	return &Delta{Table: tableName, Cells: make(map[int64][]ColCell)}
}

// Set records a replacement cell for (tuple, column), overwriting an earlier
// replacement of the same cell.
func (d *Delta) Set(id int64, col int, c uncertain.Cell) {
	s := d.Cells[id]
	for i := range s {
		if s[i].Col == col {
			s[i].Cell = c
			return
		}
	}
	if s == nil {
		// First cell for this tuple: carve its slice from the arena. The
		// full-capacity carve means appends up to deltaTupleCells stay
		// inside the carved region and cannot touch a neighbor's cells.
		if cap(d.block)-len(d.block) < deltaTupleCells {
			d.block = make([]ColCell, 0, deltaBlockTuples*deltaTupleCells)
		}
		n := len(d.block)
		s = d.block[n : n : n+deltaTupleCells]
		d.block = d.block[:n+deltaTupleCells]
	}
	d.Cells[id] = append(s, ColCell{Col: col, Cell: c})
}

// Get returns the replacement cell recorded for (tuple, column), if any.
func (d *Delta) Get(id int64, col int) (uncertain.Cell, bool) {
	for _, cc := range d.Cells[id] {
		if cc.Col == col {
			return cc.Cell, true
		}
	}
	return uncertain.Cell{}, false
}

// Len returns the number of touched tuples.
func (d *Delta) Len() int { return len(d.Cells) }

// mergeCells merges the delta's cell replacements for one tuple, at offset
// off of a segment with zones zs (nil for none), into t's cell slice (Lemma
// 4 union semantics for already-probabilistic cells, replacement for clean
// ones), folds each result into its column's zone, and returns the number of
// updated cells.
func mergeCells(t *Tuple, cols []ColCell, zs []Zone, off int) int {
	for _, cc := range cols {
		cur := &t.Cells[cc.Col]
		if cur.IsCertain() {
			*cur = cc.Cell
		} else {
			cur.Merge(cc.Cell)
		}
		if zs != nil {
			zs[cc.Col].add(off, cur)
		}
	}
	return len(cols)
}

// Apply merges the delta into the relation in place. Cells that were already
// probabilistic are merged under Lemma 4 union semantics; clean cells are
// replaced. Apply takes ownership of the delta's cells — callers must not
// mutate a delta after applying it. Returns the number of updated cells.
//
// All cell mutation must flow through Apply/ApplyCOW: the per-segment
// dirty/footprint counters are maintained here, so writing through a pointer
// obtained from Cell/At would desynchronize them.
//
// Apply panics on a relation that has participated in copy-on-write: its
// segments are shared across epoch generations, and an in-place merge would
// leak this delta into every one of them.
func (p *PTable) Apply(d *Delta) int {
	if p.shared.Load() {
		panic("ptable: in-place Apply on a copy-on-write generation (ApplyCOW results and receivers share segments across epochs); use ApplyCOW or Clone first")
	}
	updated := 0
	for id, cols := range d.Cells {
		i, ok := p.Pos(id)
		if !ok {
			continue
		}
		seg := p.segs[i>>segShift]
		t := seg.tuples[i&segMask]
		wasDirty, wasCand := t.Dirty(), t.footprint()
		updated += mergeCells(t, cols, seg.zones, i&segMask)
		if t.Dirty() != wasDirty {
			if wasDirty {
				seg.dirty--
			} else {
				seg.dirty++
			}
		}
		seg.cand += t.footprint() - wasCand
	}
	return updated
}

// ApplyCOW merges the delta copy-on-write: only the segments holding touched
// tuples are cloned (a SegmentSize pointer copy each); every other segment —
// and within cloned segments every untouched tuple — is shared with the
// receiver by pointer. A new PTable (sharing the schema) is returned together
// with the number of updated cells. Publication cost is therefore
// O(segments touched), not O(n): the receiver is not modified, so snapshots
// holding it keep reading concurrently. The returned relation must not be
// Appended to — it shares segments with its ancestors (Append enforces this
// with a panic).
func (p *PTable) ApplyCOW(d *Delta) (*PTable, int) {
	out := &PTable{Name: p.Name, Schema: p.Schema, n: p.n}
	out.shared.Store(true)
	// The receiver now shares segment structs with the new generation, so it
	// too must reject in-place growth and mutation from here on.
	p.shared.Store(true)
	out.segs = append(make([]*segment, 0, len(p.segs)), p.segs...)
	// Dense deltas clone most of the directory; carving those clones out of
	// three bulk allocations (one tuple-pointer block, one segment-struct
	// block, one zone block) instead of three small allocations per segment
	// keeps the dense case at flat-copy speed. The extra counting pass only
	// runs when the delta is large enough for the directory scan to be noise.
	var bulkTuples []*Tuple
	var bulkSegs []segment
	var bulkZones []Zone
	if len(d.Cells) >= SegmentSize/4 && len(p.segs) > 1 {
		touched := make([]bool, len(p.segs))
		cnt := 0
		for id := range d.Cells {
			if i, ok := p.Pos(id); ok {
				if si := i >> segShift; !touched[si] {
					touched[si] = true
					cnt++
				}
			}
		}
		if cnt >= len(p.segs)/4 {
			bulkTuples = make([]*Tuple, 0, cnt*SegmentSize)
			bulkSegs = make([]segment, 0, cnt)
			bulkZones = make([]Zone, 0, cnt*p.Schema.Len())
		}
	}
	// Shallow write clones are carved out of block allocations: a clean pass
	// repairing thousands of tuples would otherwise pay two heap objects per
	// tuple (struct + cell slice), which dominates the allocation profile of
	// dense deltas. Appends below never reallocate a block (capacity is
	// checked first), so carved pointers and slices stay valid.
	blockTuples := len(d.Cells)
	if blockTuples > 1024 {
		blockTuples = 1024
	}
	var tupBlock []Tuple
	var cellBlock []uncertain.Cell
	updated := 0
	for id, cols := range d.Cells {
		i, ok := p.Pos(id)
		if !ok {
			continue
		}
		si, off := i>>segShift, i&segMask
		seg := out.segs[si]
		if seg == p.segs[si] {
			if bulkSegs != nil && cap(bulkTuples)-len(bulkTuples) >= len(seg.tuples) && cap(bulkSegs) > len(bulkSegs) {
				lo, hi := len(bulkTuples), len(bulkTuples)+len(seg.tuples)
				bulkTuples = bulkTuples[:hi]
				copy(bulkTuples[lo:hi], seg.tuples)
				// A carved segment holds width zones or none, so the zone block
				// (width per counted segment) never reallocates either.
				zlo := len(bulkZones)
				bulkZones = append(bulkZones, seg.zones...)
				var zones []Zone
				if seg.zones != nil {
					zones = bulkZones[zlo:len(bulkZones):len(bulkZones)]
				}
				bulkSegs = append(bulkSegs, segment{tuples: bulkTuples[lo:hi:hi], dirty: seg.dirty, cand: seg.cand, zones: zones})
				// bulkSegs never reallocates (capacity pre-counted), so the
				// element pointer stays valid.
				seg = &bulkSegs[len(bulkSegs)-1]
			} else {
				seg = seg.clone()
			}
			out.segs[si] = seg
		}
		src := seg.tuples[off]
		// Shallow write clone: fresh cell slice (the merge below writes into
		// it) but shared candidate backing — Cell.Merge copies before
		// mutating.
		if len(tupBlock) == cap(tupBlock) {
			tupBlock = make([]Tuple, 0, blockTuples)
		}
		if cap(cellBlock)-len(cellBlock) < len(src.Cells) {
			cellBlock = make([]uncertain.Cell, 0, blockTuples*len(src.Cells))
		}
		tupBlock = append(tupBlock, Tuple{ID: src.ID})
		t := &tupBlock[len(tupBlock)-1]
		clo := len(cellBlock)
		cellBlock = append(cellBlock, src.Cells...)
		t.Cells = cellBlock[clo:len(cellBlock):len(cellBlock)]
		wasDirty, wasCand := src.Dirty(), src.footprint()
		updated += mergeCells(t, cols, seg.zones, off)
		if t.Dirty() != wasDirty {
			if wasDirty {
				seg.dirty--
			} else {
				seg.dirty++
			}
		}
		seg.cand += t.footprint() - wasCand
		seg.tuples[off] = t
	}
	return out, updated
}

// DirtyTuples returns the count of tuples with at least one uncertain cell,
// read off the maintained per-segment counters — O(n/SegmentSize), not a
// full scan.
func (p *PTable) DirtyTuples() int {
	n := 0
	for _, s := range p.segs {
		n += s.dirty
	}
	return n
}

// MostProbable materializes the relation by picking every cell's most
// probable candidate (the DaisyP policy of Table 5).
func (p *PTable) MostProbable() *table.Table {
	out := table.New(p.Name, p.Schema)
	for _, t := range p.Rows() {
		row := make(table.Row, len(t.Cells))
		for i := range t.Cells {
			row[i] = t.Cells[i].Value()
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Originals materializes the provenance view: every cell's original value,
// regardless of cleaning (used when new rules arrive, Table 7).
func (p *PTable) Originals() *table.Table {
	out := table.New(p.Name, p.Schema)
	for _, t := range p.Rows() {
		row := make(table.Row, len(t.Cells))
		for i := range t.Cells {
			row[i] = t.Cells[i].Orig
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// CandidateFootprint sums candidate counts across all uncertain cells — the
// "p" of the paper's update-cost term (size of probabilistic values) — read
// off the maintained per-segment counters.
func (p *PTable) CandidateFootprint() int {
	n := 0
	for _, s := range p.segs {
		n += s.cand
	}
	return n
}

// String renders a bounded preview for diagnostics.
func (p *PTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s) [%d tuples, %d dirty]", p.Name, p.Schema, p.Len(), p.DirtyTuples())
	return b.String()
}

// Get returns the concrete value of a certain cell or the most probable
// candidate of an uncertain one (row addressed by position).
func (p *PTable) Get(row int, col string) value.Value {
	return p.At(row).Cells[p.Schema.MustIndex(col)].Value()
}

// Fingerprint renders the relation's full probabilistic state canonically:
// one line per tuple with every cell's original value, candidate set
// (sorted by value, full-precision probabilities and supports), and range
// candidates (sorted by op/bound). World identifiers are excluded — they
// number candidate insertion order, which merge order permutes without
// changing the distribution — so two states that answer every query
// identically fingerprint identically. Tests use it to assert that the
// converged state of a concurrent session is byte-identical to sequential
// execution (and that segmented storage is byte-identical to the flat
// reference implementation).
func (p *PTable) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%d\n", p.Name, p.Schema, p.Len())
	for _, t := range p.Rows() {
		fmt.Fprintf(&b, "#%d", t.ID)
		for i := range t.Cells {
			b.WriteByte('|')
			appendCellFingerprint(&b, &t.Cells[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CellFingerprint renders one cell in the same canonical form Fingerprint
// uses — the comparison unit of the differential tests.
func CellFingerprint(c *uncertain.Cell) string {
	var b strings.Builder
	appendCellFingerprint(&b, c)
	return b.String()
}

func appendCellFingerprint(b *strings.Builder, c *uncertain.Cell) {
	fmt.Fprintf(b, "o=%s", c.Orig)
	if c.IsCertain() {
		return
	}
	cands := append([]uncertain.Candidate(nil), c.Candidates...)
	sort.Slice(cands, func(i, j int) bool { return cands[i].Val.Less(cands[j].Val) })
	for _, cand := range cands {
		fmt.Fprintf(b, ";c=%s@%.12g/%d", cand.Val, cand.Prob, cand.Support)
	}
	ranges := append([]uncertain.RangeCandidate(nil), c.Ranges...)
	sort.Slice(ranges, func(i, j int) bool {
		if ranges[i].Op != ranges[j].Op {
			return ranges[i].Op < ranges[j].Op
		}
		if !ranges[i].Bound.Equal(ranges[j].Bound) {
			return ranges[i].Bound.Less(ranges[j].Bound)
		}
		return ranges[i].Prob < ranges[j].Prob
	})
	for _, r := range ranges {
		fmt.Fprintf(b, ";r=%s%s@%.12g", r.Op, r.Bound, r.Prob)
	}
}
