package oracle

import (
	"fmt"
	"strings"

	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/uncertain"
)

// FlatTable is the pre-refactor probabilistic relation: one flat tuple
// pointer slice plus an id→position map, with in-place delta application —
// exactly the storage model ptable.PTable had before it was segmented. The
// oracle keeps it on purpose: the differential suite then compares the
// optimized engine's segmented copy-on-write storage against this naive flat
// path end to end, so a bug in segment arithmetic, counter maintenance, or
// clone-sharing shows up as a fingerprint divergence, not just a logic bug.
type FlatTable struct {
	Name   string
	Schema *schema.Schema
	Tuples []*ptable.Tuple
	byID   map[int64]int
}

// FlatFromTable snapshots a deterministic table the pre-refactor way: one
// flat batch allocation, tuple IDs are row positions. The
// ptable differential tests use it to build the flat side of every
// comparison.
func FlatFromTable(t *table.Table) *FlatTable {
	n := t.Len()
	f := &FlatTable{Name: t.Name, Schema: t.Schema, byID: make(map[int64]int, n)}
	f.Tuples = make([]*ptable.Tuple, 0, n)
	width := t.Schema.Len()
	tuples := make([]ptable.Tuple, n)
	cells := make([]uncertain.Cell, n*width)
	for i, row := range t.Rows {
		tc := cells[i*width : (i+1)*width : (i+1)*width]
		for j, v := range row {
			tc[j] = uncertain.Certain(v)
		}
		tuples[i] = ptable.Tuple{ID: int64(i), Cells: tc}
		f.byID[int64(i)] = i
		f.Tuples = append(f.Tuples, &tuples[i])
	}
	return f
}

// Len returns the number of tuples.
func (f *FlatTable) Len() int { return len(f.Tuples) }

// Pos returns the row position of the tuple with the given ID.
func (f *FlatTable) Pos(id int64) (int, bool) {
	i, ok := f.byID[id]
	return i, ok
}

// Cell returns the named cell of the tuple at position row.
func (f *FlatTable) Cell(row int, col string) *uncertain.Cell {
	return &f.Tuples[row].Cells[f.Schema.MustIndex(col)]
}

// Apply merges the delta in place with the same replace-or-merge semantics
// as ptable.PTable.Apply (shared through uncertain.Cell.Merge) and returns
// the number of updated cells.
func (f *FlatTable) Apply(d *ptable.Delta) int {
	updated := 0
	for id, cols := range d.Cells {
		i, ok := f.byID[id]
		if !ok {
			continue
		}
		t := f.Tuples[i]
		for _, cc := range cols {
			cur := &t.Cells[cc.Col]
			if cur.IsCertain() {
				*cur = cc.Cell
			} else {
				cur.Merge(cc.Cell)
			}
			updated++
		}
	}
	return updated
}

// ApplyCOW is the seed implementation of copy-on-write application
// verbatim: clone the whole tuple-pointer slice — O(n) regardless of delta
// size — then clone-and-merge the touched tuples. The oracle itself cleans
// in place; this exists as the differential and allocation baseline the
// segmented ptable.PTable.ApplyCOW is compared against.
func (f *FlatTable) ApplyCOW(d *ptable.Delta) (*FlatTable, int) {
	out := &FlatTable{Name: f.Name, Schema: f.Schema, byID: f.byID}
	out.Tuples = append(make([]*ptable.Tuple, 0, len(f.Tuples)), f.Tuples...)
	updated := 0
	for id, cols := range d.Cells {
		i, ok := f.byID[id]
		if !ok {
			continue
		}
		src := out.Tuples[i]
		t := &ptable.Tuple{ID: src.ID, Cells: append([]uncertain.Cell(nil), src.Cells...)}
		for _, cc := range cols {
			cur := &t.Cells[cc.Col]
			if cur.IsCertain() {
				*cur = cc.Cell
			} else {
				cur.Merge(cc.Cell)
			}
			updated++
		}
		out.Tuples[i] = t
	}
	return out, updated
}

// DirtyTuples counts tuples with at least one uncertain cell — by full scan,
// the pre-refactor way.
func (f *FlatTable) DirtyTuples() int {
	n := 0
	for _, t := range f.Tuples {
		if t.Dirty() {
			n++
		}
	}
	return n
}

// CandidateFootprint sums candidate and range counts over uncertain cells —
// by full scan, the pre-refactor way.
func (f *FlatTable) CandidateFootprint() int {
	n := 0
	for _, t := range f.Tuples {
		for i := range t.Cells {
			if !t.Cells[i].IsCertain() {
				n += len(t.Cells[i].Candidates) + len(t.Cells[i].Ranges)
			}
		}
	}
	return n
}

// Fingerprint renders the relation byte-compatibly with
// ptable.PTable.Fingerprint, so a flat oracle state and a segmented engine
// state compare with string equality.
func (f *FlatTable) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%d\n", f.Name, f.Schema, f.Len())
	for _, t := range f.Tuples {
		fmt.Fprintf(&b, "#%d", t.ID)
		for i := range t.Cells {
			b.WriteByte('|')
			b.WriteString(ptable.CellFingerprint(&t.Cells[i]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
