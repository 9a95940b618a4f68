// Package engine executes cleaning-aware logical plans over probabilistic
// tables. Operators follow the paper's possible-worlds semantics: a filter
// qualifies a tuple iff at least one candidate value satisfies it, and an
// equi-join emits a pair iff the candidate sets of the join keys overlap
// (§4). Cleaning operators delegate to a Cleaner — implemented by the core
// Session — which relaxes, repairs, and updates the dataset in place, then
// returns the corrected row set.
package engine

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/expr"
	"daisy/internal/plan"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/sql"
	"daisy/internal/trace"
	"daisy/internal/uncertain"
	"daisy/internal/value"
)

// Cleaner cleans the filtered rows of a base relation: it computes and
// applies repairs for the rows' violations and returns the relation
// generation downstream operators must read (under snapshot isolation the
// fixes land on a copy-on-write overlay, not the executor's input table)
// together with the candidate row positions: the input rows, then the
// relaxation's extras, each once. A nil returned table means "unchanged".
// The cleaner may append to rows (the executor owns it and reads it no
// more) but does not re-test the predicate: the executor re-qualifies the
// candidates against the returned generation with its own filter, keeping an
// input row untested where that generation shares its tuple with the input's.
// Fixes must therefore land copy-on-write (ApplyCOW), never by mutating a
// tuple in place. sp is the cleanσ operator's trace span (the zero Span
// when untraced); implementations nest their detection/decision/repair spans
// under it.
type Cleaner interface {
	CleanSelect(table string, rows []int, pred expr.Pred, rules []*dc.Constraint, m *detect.Metrics, sp trace.Span) (*ptable.PTable, []int, error)
}

// Executor runs plans against a set of probabilistic relations.
type Executor struct {
	Tables  map[string]*ptable.PTable
	Cleaner Cleaner // nil disables cleaning (dirty execution)
	// Workers bounds the worker pool of the partitioned operators (filter,
	// hash-join build/probe): <=1 forces sequential execution. Output is
	// identical for any setting — parallel operators merge in partition
	// order.
	Workers int
	// Ctx, when non-nil, is polled cooperatively at operator boundaries and
	// inside the partitioned hot loops; once it is done, execution unwinds
	// with an error wrapping Ctx.Err().
	Ctx     context.Context
	Metrics detect.Metrics
	// Span, when active, is the parent span operator spans record under
	// (one per plan node, with rows-in/rows-out counts). The zero Span
	// disables operator tracing at no cost.
	Span trace.Span
}

// ctxCheckEvery is how many rows the hot loops process between cancellation
// polls.
const ctxCheckEvery = 1024

// ctxErr polls the executor's context; non-nil means execution must unwind.
func (e *Executor) ctxErr() error {
	if e.Ctx == nil {
		return nil
	}
	if err := e.Ctx.Err(); err != nil {
		return fmt.Errorf("engine: query aborted: %w", err)
	}
	return nil
}

// frame is an intermediate result: selected row positions over a relation
// generation, read through a column map.
type frame struct {
	pt     *ptable.PTable
	rows   []int  // nil when full
	table  string // base table name when isBase
	isBase bool
	// The first passed rows already qualified, on generation prev, for the
	// predicate a re-qualifying filter tests (see filter); prev is nil
	// elsewhere.
	prev   *ptable.PTable
	passed int
	// full marks the unfiltered scan of a base relation: every row, in
	// position order, with rows left nil. filter walks it segment by segment
	// against the zone maps; the operators that need positions ask
	// positions() for them.
	full bool
	// cols maps output column i to column cols[i] of pt, and schema
	// describes the output columns; both are nil when the frame reads every
	// column of pt in order. Only project sets them, and a projection is the
	// root of every plan plan.Build makes, so no other operator reads a
	// frame through a column map.
	cols   []int
	schema *schema.Schema
}

// len returns the number of rows the frame selects.
func (f *frame) len() int {
	if f.full {
		return f.pt.Len()
	}
	return len(f.rows)
}

// positions returns the frame's row positions, materialising them for a
// full scan.
func (f *frame) positions() []int {
	if f.full {
		return seq(f.pt.Len())
	}
	return f.rows
}

// Frame is an executed but unmaterialized result: the relation generation the
// plan's root reads, the qualifying row positions in result order, and the
// column map. The streaming query path enumerates it in place instead of
// copying tuples into a standalone result table.
type Frame struct {
	PT   *ptable.PTable
	Rows []int
	// Cols maps result column i to column Cols[i] of PT; nil means every
	// column of PT, in order. Schema describes the result columns.
	Cols   []int
	Schema *schema.Schema
	// isBase records whether the frame still aliases a base relation, which
	// Materialize must copy rather than return directly.
	isBase bool
}

// Len returns the number of result rows.
func (f *Frame) Len() int { return len(f.Rows) }

// Materialize snapshots the frame into a standalone result table.
func (f *Frame) Materialize() *ptable.PTable {
	if f.Cols == nil && len(f.Rows) == f.PT.Len() && !f.isBase {
		return f.PT
	}
	return copyRows("result", f.Schema, f.PT, f.Rows, f.Cols)
}

// copyRows builds a relation of the given rows of pt, numbered by their
// position in rows. With cols nil every tuple aliases its source's cells;
// otherwise it copies the source cells at cols into one cell block.
func copyRows(name string, s *schema.Schema, pt *ptable.PTable, rows, cols []int) *ptable.PTable {
	out := ptable.New(name, s)
	out.Reserve(len(rows))
	tuples := make([]ptable.Tuple, len(rows))
	var cells []uncertain.Cell
	if cols != nil {
		cells = make([]uncertain.Cell, len(rows)*len(cols))
	}
	cur := pt.Cursor()
	for ti, r := range rows {
		tc := cur.At(r).Cells
		if cols != nil {
			dst := cells[ti*len(cols) : (ti+1)*len(cols) : (ti+1)*len(cols)]
			for i, c := range cols {
				dst[i] = tc[c]
			}
			tc = dst
		}
		tuples[ti] = ptable.Tuple{ID: int64(ti), Cells: tc}
		out.Append(&tuples[ti])
	}
	return out
}

// Run executes the plan and returns the unmaterialized result frame.
func (e *Executor) Run(n plan.Node) (*Frame, error) {
	f, err := e.exec(n, e.Span)
	if err != nil {
		return nil, err
	}
	s := f.schema
	if s == nil {
		s = f.pt.Schema
	}
	return &Frame{PT: f.pt, Rows: f.positions(), Cols: f.cols, Schema: s, isBase: f.isBase}, nil
}

// exec dispatches one plan node. parent is the span the node's operator span
// records under; each operator starts its own span and hands it to its
// children, so the span tree mirrors the plan tree.
func (e *Executor) exec(n plan.Node, parent trace.Span) (*frame, error) {
	if err := e.ctxErr(); err != nil {
		return nil, err
	}
	switch node := n.(type) {
	case *plan.Scan:
		return e.execScan(node, parent)
	case *plan.Select:
		return e.execSelect(node, parent)
	case *plan.CleanSelect:
		return e.execCleanSelect(node, parent)
	case *plan.Join:
		return e.execJoin(node, parent)
	case *plan.GroupBy:
		return e.execGroupBy(node, parent)
	case *plan.Project:
		return e.execProject(node, parent)
	}
	return nil, fmt.Errorf("engine: unknown plan node %T", n)
}

func (e *Executor) execScan(node *plan.Scan, parent trace.Span) (*frame, error) {
	sp := parent.Start("scan")
	pt, ok := e.Tables[node.Table]
	if !ok {
		return nil, fmt.Errorf("engine: %w %q", plan.ErrUnknownTable, node.Table)
	}
	e.Metrics.Scanned += int64(pt.Len())
	if sp.Active() {
		sp.End(trace.Str("table", node.Table), trace.Int("rows_out", pt.Len()))
	}
	return &frame{pt: pt, table: node.Table, isBase: true, full: true}, nil
}

func (e *Executor) execSelect(node *plan.Select, parent trace.Span) (*frame, error) {
	f, err := e.exec(node.Child, parent)
	if err != nil {
		return nil, err
	}
	sp := parent.Start("filter")
	out, st, err := e.filter(f, node.Pred)
	if sp.Active() {
		n := 0
		if out != nil {
			n = len(out.rows)
		}
		sp.End(trace.Int("rows_in", f.len()), trace.Int("rows_out", n),
			trace.Int("rows_evaluated", st.evaluated), trace.Int("segments_pruned", st.pruned))
	}
	return out, err
}

// parallelism returns the worker count to use for an operator over n items:
// one (a single chunk, run inline) below the partition threshold — goroutine
// fan-out costs more than it saves on small inputs — and Workers-bounded
// above it.
func (e *Executor) parallelism(n int) int {
	if e.Workers <= 1 || n < parallelThreshold {
		return 1
	}
	w := e.Workers
	if w > n {
		w = n
	}
	return w
}

// parallelThreshold is the input size below which partitioned operators run
// sequentially.
const parallelThreshold = 2048

// chunkBounds splits n items into 1..w contiguous chunks whose interior
// boundaries are PTable segment multiples: parallel tasks are segment
// ranges, so chunks over base scans (where row position equals row-set
// index) touch disjoint segment sets and workers never interleave reads
// within one segment's tuple block — and per-chunk cursors reload the
// segment directory exactly once per segment. Distributing whole segments
// (i*segs/w) keeps chunks balanced to within one segment; fewer segments
// than workers simply yields fewer chunks (runChunks caps its pool at the
// chunk count), and w = 1 or n = 0 yields the one chunk [0, n]. Chunks
// concatenate in order, so the merged output is byte-identical for every
// worker count.
func chunkBounds(n, w int) []int {
	segs := max((n+ptable.SegmentSize-1)/ptable.SegmentSize, 1)
	w = min(w, segs)
	bounds := make([]int, w+1)
	for i := 1; i <= w; i++ {
		bounds[i] = min((i*segs/w)*ptable.SegmentSize, n)
	}
	return bounds
}

// runChunks executes fn per chunk on a bounded worker pool and returns when
// every chunk finished. fn receives the chunk index and its [lo, hi) bounds.
// A pool of one runs the chunks inline, without a goroutine. A done ctx
// makes workers skip the remaining chunks — the caller detects the abort
// with ctxErr afterwards and discards the partial results.
func runChunks(ctx context.Context, bounds []int, workers int, fn func(ci, lo, hi int)) {
	chunks := len(bounds) - 1
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for ci := 0; ci < chunks && (ctx == nil || ctx.Err() == nil); ci++ {
			fn(ci, bounds[ci], bounds[ci+1])
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range next {
				if ctx != nil && ctx.Err() != nil {
					continue
				}
				fn(ci, bounds[ci], bounds[ci+1])
			}
		}()
	}
	for ci := 0; ci < chunks; ci++ {
		next <- ci
	}
	close(next)
	wg.Wait()
}

// filterStats counts a filter's work: the rows it evaluated the predicate
// on, and the segments whose zones let it skip some rows.
type filterStats struct{ evaluated, pruned int }

// filter keeps the rows qualifying in at least one possible world. The
// predicate is compiled once per call against the frame's schema (see
// compilePred) into a row kernel that every chunk shares. Above the partition
// threshold the row set fans out across the worker pool; chunk results
// concatenate in chunk order, so the output is byte-identical for every
// worker count. A full base scan is walked segment by segment: where a
// segment's zones rule out its bounded cells, only the rows with an Unsure
// bit are evaluated, with the same kernel, in the same order.
//
// Re-qualification hands over what it already knows: the first f.passed rows
// qualified on generation f.prev. Such a row is kept without evaluation when
// f.pt holds the same tuple pointer at its position — ApplyCOW shares every
// untouched tuple and a published tuple is never mutated, so its cells are
// the ones it passed on. Every other row is evaluated.
func (e *Executor) filter(f *frame, pred expr.Pred) (*frame, filterStats, error) {
	kern, zt, err := compilePred(pred, f.pt.Schema)
	if err != nil {
		return nil, filterStats{}, err
	}
	w := e.parallelism(f.len())
	bounds := chunkBounds(f.len(), w)
	keeps := make([][]int, len(bounds)-1)
	stats := make([]filterStats, len(bounds)-1)
	runChunks(e.Ctx, bounds, w, func(ci, lo, hi int) {
		keeps[ci], stats[ci] = e.filterChunk(f, kern, zt, lo, hi)
	})
	if err := e.ctxErr(); err != nil {
		return nil, filterStats{}, err
	}
	out := &frame{pt: f.pt, table: f.table, isBase: f.isBase, rows: keeps[0]}
	var st filterStats
	for ci := range keeps {
		if ci > 0 {
			out.rows = append(out.rows, keeps[ci]...)
		}
		st.evaluated += stats[ci].evaluated
		st.pruned += stats[ci].pruned
	}
	return out, st, nil
}

// filterChunk filters the chunk [lo, hi) of f. A full scan (lo a segment
// boundary) is walked segment by segment, a nil zone test ruling out
// nothing; a row set is tested row by row, except the passed rows that
// f.prev shares with f.pt (see filter). A done context stops it early; the
// caller detects that with ctxErr and discards the result.
func (e *Executor) filterChunk(f *frame, kern rowKernel, zt zoneTest, lo, hi int) (keep []int, st filterStats) {
	cur := f.pt.Cursor() // per chunk: a cursor caches its segment
	test := func(r int) {
		st.evaluated++
		if kern(cur.At(r).Cells) {
			keep = append(keep, r)
		}
	}
	if !f.full {
		var pcur ptable.Cursor
		if f.passed > lo {
			pcur = f.prev.Cursor()
		}
		for i := lo; i < hi; i++ {
			if (i-lo)%ctxCheckEvery == 0 && e.ctxErr() != nil {
				return
			}
			if r := f.rows[i]; i < f.passed && pcur.At(r) == cur.At(r) {
				keep = append(keep, r)
			} else {
				test(r)
			}
		}
		return
	}
	for k := ptable.SegOf(lo); k < f.pt.Segments(); k++ {
		slo, shi := f.pt.SegSpan(k)
		if slo >= hi || e.ctxErr() != nil {
			return
		}
		mask, all := segMask{}, true
		if zs := f.pt.SegZones(k); zs != nil && zt != nil {
			mask, all = zt(zs)
		}
		if all {
			for r := slo; r < shi; r++ {
				test(r)
			}
			continue
		}
		st.pruned++
		for wi, word := range mask {
			for ; word != 0; word &= word - 1 {
				test(slo + wi<<6 + bits.TrailingZeros64(word))
			}
		}
	}
	return
}

// resolveRef resolves a column reference against a schema: a qualified name
// first tries the prefixed join column ("table.col"), then the plain name.
// Returns -1 when absent.
func resolveRef(s *schema.Schema, ref expr.ColRef) int {
	idx := -1
	if ref.Table != "" {
		idx = s.Index(ref.Table + "." + ref.Col)
	}
	if idx < 0 {
		idx = s.Index(ref.Col)
	}
	return idx
}

func (e *Executor) execCleanSelect(node *plan.CleanSelect, parent trace.Span) (*frame, error) {
	f, err := e.exec(node.Child, parent)
	if err != nil {
		return nil, err
	}
	if e.Cleaner == nil {
		return f, nil // dirty execution
	}
	if !f.isBase {
		return nil, fmt.Errorf("engine: cleanσ requires a base relation input, got materialized frame")
	}
	var pred expr.Pred
	if sel, ok := node.Child.(*plan.Select); ok {
		pred = sel.Pred
	}
	sp := parent.Start("cleanselect")
	out, st, err := e.cleanSelect(node, f, pred, sp)
	if sp.Active() {
		n := 0
		if out != nil {
			n = len(out.rows)
		}
		sp.End(trace.Str("table", node.Table), trace.Int("rules", len(node.Rules)),
			trace.Int("rows_in", f.len()), trace.Int("rows_out", n),
			trace.Int("rows_evaluated", st.evaluated))
	}
	return out, err
}

// cleanSelect runs the cleaner over f's rows, then re-qualifies its
// candidates: the same filter, over the cleaned generation, keeps every row
// that satisfies pred in at least one possible world after cleaning (§4).
// f's rows already passed pred on f's generation, so the filter re-tests
// only those whose tuple the cleaning replaced, and the relaxation's extras;
// with no new generation and no extras there is nothing to re-test.
func (e *Executor) cleanSelect(node *plan.CleanSelect, f *frame, pred expr.Pred, sp trace.Span) (*frame, filterStats, error) {
	in := f.positions()
	pt, rows, err := e.Cleaner.CleanSelect(node.Table, in, pred, node.Rules, &e.Metrics, sp)
	if err != nil {
		return nil, filterStats{}, err
	}
	if pt != nil {
		// Snapshot isolation: the cleaner returns the query-local generation
		// carrying its fixes; downstream operators must read it.
		e.Tables[node.Table] = pt
	} else {
		pt = e.Tables[node.Table]
	}
	out := &frame{pt: pt, rows: rows, table: f.table, isBase: true}
	if pred == nil || (pt == f.pt && len(rows) == len(in)) {
		return out, filterStats{}, nil
	}
	out.prev, out.passed = f.pt, len(in)
	return e.filter(out, pred)
}

func (e *Executor) execJoin(node *plan.Join, parent trace.Span) (*frame, error) {
	lf, err := e.exec(node.Left, parent)
	if err != nil {
		return nil, err
	}
	rf, err := e.exec(node.Right, parent)
	if err != nil {
		return nil, err
	}
	sp := parent.Start("join")
	joined, err := e.hashJoin(lf, rf, node, sp)
	if sp.Active() {
		n := 0
		if joined != nil {
			n = len(joined.rows)
		}
		sp.End(trace.Int("rows_left", lf.len()), trace.Int("rows_right", rf.len()),
			trace.Int("rows_out", n))
	}
	if err != nil {
		return nil, err
	}
	return joined, nil
}

// hashJoin performs the probabilistic equi-join: build on the right side
// keyed by every candidate value, probe with every candidate value of the
// left key, and emit each overlapping pair once. Join tuples are numbered by
// result position; clean⋈ needs no way back to the base tuples, because
// cleanσ runs on each base relation below the join (§4.4).
func (e *Executor) hashJoin(lf, rf *frame, node *plan.Join, sp trace.Span) (*frame, error) {
	rightSchema := rf.pt.Schema
	joinedSchema, err := lf.pt.Schema.Concat(rightSchema, node.RightTable+".")
	if err != nil {
		return nil, err
	}
	out := ptable.New("join", joinedSchema)

	rcol, err := resolveCol(rightSchema, node.RightRef)
	if err != nil {
		return nil, err
	}
	lcol, err := resolveCol(lf.pt.Schema, node.LeftRef)
	if err != nil {
		return nil, err
	}
	build := e.buildSide(rf, rcol)
	matches := e.probeSide(lf, lcol, build)
	if err := e.ctxErr(); err != nil {
		return nil, err
	}
	msp := sp.Start("materialize")
	out.Reserve(len(matches))
	// Join tuples carve their cells from one block: the left row's cells,
	// then the right row's.
	lw, width := lf.pt.Schema.Len(), joinedSchema.Len()
	cells := make([]uncertain.Cell, len(matches)*width)
	tuples := make([]ptable.Tuple, len(matches))
	w := e.parallelism(len(matches))
	runChunks(e.Ctx, chunkBounds(len(matches), w), w, func(ci, lo, hi int) {
		// Per-chunk cursors: match rows arrive in near-ascending left order,
		// so the segment cache amortizes the positional decodes.
		lcur, rcur := lf.pt.Cursor(), rf.pt.Cursor()
		for i := lo; i < hi; i++ {
			dst := cells[i*width : (i+1)*width : (i+1)*width]
			copy(dst, lcur.At(matches[i].l).Cells)
			copy(dst[lw:], rcur.At(matches[i].r).Cells)
			tuples[i] = ptable.Tuple{ID: int64(i), Cells: dst}
		}
	})
	if err := e.ctxErr(); err != nil {
		return nil, err
	}
	for i := range tuples {
		out.Append(&tuples[i])
	}
	if msp.Active() {
		msp.End(trace.Int("rows", len(matches)))
	}
	return &frame{pt: out, rows: seq(out.Len())}, nil
}

// joinMatch is one qualifying (left row, right row) pair, produced by the
// probe phase before tuples materialize.
type joinMatch struct{ l, r int }

// buildSide hashes the build relation by every candidate value of its join
// key, column col. Each chunk scans into a private map; above the partition
// threshold the chunks fan out and their maps merge in chunk order, so every
// key's row list is in ascending row order for every worker count. A single
// chunk's map is the build.
func (e *Executor) buildSide(rf *frame, col int) map[value.MapKey][]int {
	rows := rf.positions()
	w := e.parallelism(len(rows))
	bounds := chunkBounds(len(rows), w)
	parts := make([]map[value.MapKey][]int, len(bounds)-1)
	runChunks(e.Ctx, bounds, w, func(ci, lo, hi int) {
		cur := rf.pt.Cursor()
		part := make(map[value.MapKey][]int, hi-lo)
		for _, r := range rows[lo:hi] {
			c := &cur.At(r).Cells[col]
			for i := range numValues(c) {
				k := valueAt(c, i).MapKey()
				part[k] = append(part[k], r)
			}
		}
		parts[ci] = part
	})
	if len(parts) == 1 {
		return parts[0]
	}
	build := make(map[value.MapKey][]int, len(rows))
	for _, part := range parts {
		for k, rows := range part {
			build[k] = append(build[k], rows...)
		}
	}
	return build
}

// probeSide probes every candidate value of the left join key, column col,
// and collects qualifying pairs. Probing chunks the left rows and
// concatenates per-chunk matches in chunk order, so the pair sequence is the
// same for every worker count. Comparison counts accumulate per chunk and
// merge after.
func (e *Executor) probeSide(lf *frame, col int, build map[value.MapKey][]int) []joinMatch {
	rows := lf.positions()
	w := e.parallelism(len(rows))
	bounds := chunkBounds(len(rows), w)
	results := make([][]joinMatch, len(bounds)-1)
	locals := make([]detect.Metrics, len(bounds)-1)
	runChunks(e.Ctx, bounds, w, func(ci, lo, hi int) {
		results[ci] = e.probeChunk(lf, col, build, rows[lo:hi], &locals[ci])
	})
	out := results[0]
	for ci, ms := range results {
		if ci > 0 {
			out = append(out, ms...)
		}
		e.Metrics.Add(locals[ci])
	}
	return out
}

func (e *Executor) probeChunk(lf *frame, col int, build map[value.MapKey][]int, rows []int, m *detect.Metrics) []joinMatch {
	cur := lf.pt.Cursor()
	var out []joinMatch
	var matched map[int]bool
	for ri, l := range rows {
		if ri%ctxCheckEvery == 0 && e.ctxErr() != nil {
			return out // caller re-polls ctxErr and discards the partial result
		}
		c := &cur.At(l).Cells[col]
		nv := numValues(c)
		// Certain cells (the common case) have one candidate, so no match
		// can repeat and the dedup set is unnecessary.
		if nv > 1 {
			matched = make(map[int]bool)
		}
		for i := range nv {
			for _, r := range build[valueAt(c, i).MapKey()] {
				if nv > 1 {
					if matched[r] {
						continue
					}
					matched[r] = true
				}
				m.Comparisons++
				out = append(out, joinMatch{l: l, r: r})
			}
		}
	}
	return out
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func (e *Executor) execGroupBy(node *plan.GroupBy, parent trace.Span) (*frame, error) {
	f, err := e.exec(node.Child, parent)
	if err != nil {
		return nil, err
	}
	sp := parent.Start("groupby")
	out, err := e.groupBy(node, f)
	if sp.Active() {
		n := 0
		if out != nil {
			n = len(out.rows)
		}
		sp.End(trace.Int("rows_in", f.len()), trace.Int("groups", n))
	}
	return out, err
}

// groupBy groups the rows by the representative values of the keys and
// folds every aggregate in the same pass, so each row's cells are read once,
// in row order. Groups come out ordered by key values.
func (e *Executor) groupBy(node *plan.GroupBy, f *frame) (*frame, error) {
	outSchema, err := aggSchema(f.pt.Schema, node.Keys, node.Items)
	if err != nil {
		return nil, err
	}
	// Resolve every column once; aggSchema has vetted the keys.
	keyCols := make([]int, len(node.Keys))
	for ki, k := range node.Keys {
		keyCols[ki] = resolveRef(f.pt.Schema, k)
	}
	var aggs []aggItem
	nacc := 0
	for _, it := range node.Items {
		if it.Agg == sql.AggNone {
			continue // a key column
		}
		a := aggItem{agg: it.Agg, col: -1}
		switch {
		case it.Agg < sql.AggCount || it.Agg > sql.AggMax:
			return nil, fmt.Errorf("engine: unsupported aggregate %v", it.Agg)
		case it.Agg == sql.AggCount && it.Star:
		default:
			if a.col, err = resolveCol(f.pt.Schema, it.Ref); err != nil {
				return nil, err
			}
			a.acc, nacc = nacc, nacc+1
		}
		aggs = append(aggs, a)
	}
	cur := f.pt.Cursor()

	type group struct {
		keyVals []value.Value
		rows    int64
		accs    []acc // one per aggregate that reads a column
	}
	groups := make(map[value.MapKey]*group)
	var order []*group
	keyBuf := make([]value.Value, len(node.Keys))
	for ri, r := range f.positions() {
		if ri%ctxCheckEvery == 0 {
			if err := e.ctxErr(); err != nil {
				return nil, err
			}
		}
		cells := cur.At(r).Cells
		for ki, c := range keyCols {
			keyBuf[ki] = cells[c].Value() // representative value of a probabilistic key
		}
		key := value.MapKeyOf(keyBuf...)
		g, ok := groups[key]
		if !ok {
			g = &group{keyVals: append([]value.Value(nil), keyBuf...), accs: make([]acc, nacc)}
			groups[key] = g
			order = append(order, g)
		}
		g.rows++
		for _, a := range aggs {
			if a.col >= 0 {
				g.accs[a.acc].add(a.agg, cells[a.col].Value())
			}
		}
	}
	// Deterministic output: groups ordered by key values.
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i].keyVals, order[j].keyVals
		for k := range a {
			if c := a[k].Compare(b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})

	out := ptable.New("groupby", outSchema)
	for _, g := range order {
		cells := make([]uncertain.Cell, 0, outSchema.Len())
		for _, v := range g.keyVals {
			cells = append(cells, uncertain.Certain(v))
		}
		for _, a := range aggs {
			v := value.NewInt(g.rows) // COUNT(*)
			if a.col >= 0 {
				v = g.accs[a.acc].result(a.agg)
			}
			cells = append(cells, uncertain.Certain(v))
		}
		out.Append(&ptable.Tuple{ID: int64(out.Len()), Cells: cells})
	}
	return &frame{pt: out, rows: seq(out.Len())}, nil
}

// aggSchema derives the output schema: group keys first, then aggregates.
// It resolves columns as groupBy reads them (resolveRef, qualified first).
func aggSchema(in *schema.Schema, keys []expr.ColRef, items []sql.SelectItem) (*schema.Schema, error) {
	var cols []schema.Column
	for _, k := range keys {
		idx := resolveRef(in, k)
		if idx < 0 {
			return nil, fmt.Errorf("engine: group key %s not in input", k)
		}
		cols = append(cols, schema.Column{Name: k.Col, Kind: in.Col(idx).Kind})
	}
	for _, it := range items {
		if it.Agg == sql.AggNone {
			continue
		}
		kind := value.Float
		if it.Agg == sql.AggCount {
			kind = value.Int
		}
		if it.Agg == sql.AggMin || it.Agg == sql.AggMax {
			if idx := resolveRef(in, it.Ref); idx >= 0 {
				kind = in.Col(idx).Kind
			}
		}
		cols = append(cols, schema.Column{Name: it.String(), Kind: kind})
	}
	return schema.New(cols...)
}

// aggItem is one aggregate of a GROUP BY: its function, the column it
// reads (-1 for COUNT(*), which needs only the group's row count) and the
// index of its acc in a group.
type aggItem struct {
	agg      sql.AggFunc
	col, acc int
}

// acc folds one aggregate over a group's representative values, skipping
// NULLs. ext is the minimum for MIN, the maximum for MAX.
type acc struct {
	count int64
	sum   float64
	ext   value.Value
}

func (a *acc) add(agg sql.AggFunc, v value.Value) {
	if v.IsNull() {
		return
	}
	a.count++
	switch agg {
	case sql.AggSum, sql.AggAvg:
		if v.IsNumeric() {
			a.sum += v.Float()
		}
	case sql.AggMin:
		if a.ext.IsNull() || v.Less(a.ext) {
			a.ext = v
		}
	case sql.AggMax:
		if a.ext.IsNull() || a.ext.Less(v) {
			a.ext = v
		}
	}
}

func (a *acc) result(agg sql.AggFunc) value.Value {
	switch agg {
	case sql.AggCount:
		return value.NewInt(a.count)
	case sql.AggSum:
		return value.NewFloat(a.sum)
	case sql.AggAvg:
		if a.count == 0 {
			return value.NewNull()
		}
		return value.NewFloat(a.sum / float64(a.count))
	}
	return a.ext // MIN, MAX
}

func (e *Executor) execProject(node *plan.Project, parent trace.Span) (*frame, error) {
	f, err := e.exec(node.Child, parent)
	if err != nil {
		return nil, err
	}
	// Star projection: pass everything through.
	for _, it := range node.Items {
		if it.Star {
			return f, nil
		}
	}
	sp := parent.Start("project")
	defer func() {
		if sp.Active() {
			sp.End(trace.Int("rows", f.len()), trace.Int("cols", len(node.Items)))
		}
	}()
	var cols []schema.Column
	idxs := make([]int, 0, len(node.Items))
	for _, it := range node.Items {
		idx := resolveRef(f.pt.Schema, it.Ref)
		if idx < 0 {
			return nil, fmt.Errorf("engine: projection column %s not in input (%s)", it.Ref, f.pt.Schema)
		}
		cols = append(cols, f.pt.Schema.Col(idx))
		idxs = append(idxs, idx)
	}
	outSchema, err := schema.New(cols...)
	if err != nil {
		// Duplicate projection names: qualify them positionally.
		for i := range cols {
			cols[i].Name = fmt.Sprintf("%s#%d", cols[i].Name, i)
		}
		outSchema, err = schema.New(cols...)
		if err != nil {
			return nil, err
		}
	}
	// Narrow the column map; the rows stay where they are.
	out := *f
	out.cols, out.schema = idxs, outSchema
	return &out, nil
}
