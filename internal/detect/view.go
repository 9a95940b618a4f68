// Package detect implements violation detection for denial constraints.
// Functional dependencies use hash grouping on the LHS (the BigDansing
// optimization the paper's offline baseline adopts — no self-join); general
// DCs delegate pair enumeration to package thetajoin.
package detect

import (
	"daisy/internal/ptable"
	"daisy/internal/table"
	"daisy/internal/value"
)

// RowView abstracts a relation for detection: deterministic tables, subsets
// of them, and probabilistic tables viewed through their original values.
// Rows are addressed by position in the view, which for a whole relation is
// the tuple's identity. Hot paths resolve column names to indices once via
// ColIndex and then read cells positionally via ValueAt; Value remains as the
// name-resolving convenience accessor.
type RowView interface {
	// Len returns the number of rows.
	Len() int
	// Value returns the named attribute of row i.
	Value(i int, col string) value.Value
	// ColIndex resolves a column name to the positional index ValueAt
	// expects, or -1 when the column does not exist.
	ColIndex(col string) int
	// ValueAt returns the attribute at column index idx of row i.
	ValueAt(i, idx int) value.Value
}

// TableView adapts a deterministic table.
type TableView struct{ T *table.Table }

// Len implements RowView.
func (v TableView) Len() int { return v.T.Len() }

// Value implements RowView.
func (v TableView) Value(i int, col string) value.Value { return v.T.ColByName(i, col) }

// ColIndex implements RowView.
func (v TableView) ColIndex(col string) int { return v.T.Schema.Index(col) }

// ValueAt implements RowView.
func (v TableView) ValueAt(i, idx int) value.Value { return v.T.Rows[i][idx] }

// ScanCol implements ColScanner; deterministic rows are already flat.
func (v TableView) ScanCol(dst []value.Value, idx, lo, hi int) []value.Value {
	for _, row := range v.T.Rows[lo:hi] {
		dst = append(dst, row[idx])
	}
	return dst
}

// PTableView adapts a probabilistic table. Detection sees each cell's
// original (provenance) value: rules are always checked against original
// data and merged into the probabilistic state afterwards (§4.3).
type PTableView struct {
	P *ptable.PTable
	// cur, when set (NewPTableView), caches the storage segment of the last
	// accessed row so a scan pays one positional decode per segment run, not
	// one per cell. Cursor-backed views are confined to a single goroutine;
	// the zero-cursor composite literal PTableView{P: p} stays safe to share
	// across workers.
	cur *ptable.Cursor
}

// NewPTableView returns a cursor-backed view for single-goroutine scans:
// positional reads go through a private segment-caching cursor. Views shared
// across goroutines must use the plain composite literal PTableView{P: p}
// instead — the cursor is mutable state.
func NewPTableView(p *ptable.PTable) PTableView {
	c := p.Cursor()
	return PTableView{P: p, cur: &c}
}

func (v PTableView) at(i int) *ptable.Tuple {
	if v.cur != nil {
		return v.cur.At(i)
	}
	return v.P.At(i)
}

// Len implements RowView.
func (v PTableView) Len() int { return v.P.Len() }

// Value implements RowView.
func (v PTableView) Value(i int, col string) value.Value {
	return v.at(i).Cells[v.P.Schema.MustIndex(col)].Orig
}

// ColIndex implements RowView.
func (v PTableView) ColIndex(col string) int { return v.P.Schema.Index(col) }

// ValueAt implements RowView.
func (v PTableView) ValueAt(i, idx int) value.Value { return v.at(i).Cells[idx].Orig }

// ScanCol implements ColScanner: original values of one column over [lo, hi)
// are extracted in segment-sized runs straight off the storage blocks.
func (v PTableView) ScanCol(dst []value.Value, idx, lo, hi int) []value.Value {
	return v.P.ScanColOrig(dst, idx, lo, hi)
}

// SubsetView restricts a view to selected row positions: its row i is row
// Idx[i] of Base.
type SubsetView struct {
	Base RowView
	Idx  []int
}

// Len implements RowView.
func (v SubsetView) Len() int { return len(v.Idx) }

// Value implements RowView.
func (v SubsetView) Value(i int, col string) value.Value { return v.Base.Value(v.Idx[i], col) }

// ColIndex implements RowView.
func (v SubsetView) ColIndex(col string) int { return v.Base.ColIndex(col) }

// ValueAt implements RowView.
func (v SubsetView) ValueAt(i, idx int) value.Value { return v.Base.ValueAt(v.Idx[i], idx) }

// ColScanner is the optional batch column-extraction fast path: views backed
// by segmented storage copy one column's values for rows [lo, hi) in
// segment-sized runs instead of a positional decode per cell. Detection
// passes that project a couple of columns out of a wide schema (theta-join
// axis builds, FD key scans) test for it before falling back to ValueAt.
type ColScanner interface {
	ScanCol(dst []value.Value, idx, lo, hi int) []value.Value
}

// Metrics counts the work a detection or cleaning pass performs, so
// experiments can report machine-independent effort alongside wall time.
type Metrics struct {
	Comparisons int64 // pairwise predicate evaluations
	Scanned     int64 // tuples read
	Relaxed     int64 // correlated tuples added by relaxation
	Repairs     int64 // cells given candidate fixes
	Updates     int64 // cells written back to the dataset
}

// Add accumulates another metrics bundle.
func (m *Metrics) Add(o Metrics) {
	m.Comparisons += o.Comparisons
	m.Scanned += o.Scanned
	m.Relaxed += o.Relaxed
	m.Repairs += o.Repairs
	m.Updates += o.Updates
}
