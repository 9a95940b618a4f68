package core

import (
	"context"
	"fmt"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/expr"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/trace"
)

// queryCtx is the per-query execution context: the epoch the query runs
// against, the resolved per-query options, and the query-local copy-on-write
// overlay that makes the query's own fixes visible to its downstream
// operators before the writer publishes them. It implements plan.Catalog and
// engine.Cleaner.
//
// Write-backs are buffered in pending and only flushed to the single-writer
// apply loop when the whole query succeeds — a canceled query is dropped
// with them, so cancellation never publishes partial repairs.
type queryCtx struct {
	s    *Session
	snap *snapshot
	// ctx is polled cooperatively in the cleaning loops; nil disables checks.
	ctx context.Context
	// opts are the query's resolved options: the session options overlaid
	// with the caller's QueryOptions.
	opts Options

	// local maps table name → the query's private COW generation; absent
	// entries read straight from the snapshot.
	local map[string]*ptable.PTable
	// marked holds, keyed by table\x00rule, the query's private clone of a
	// checked set: made from the snapshot's set on the query's first mark
	// under the rule, so it is that set plus the groups the query cleaned.
	marked map[string]*posSet

	// pending buffers the query's write-backs until flush.
	pending []*applyReq
	// sweeps buffers background full-clean starts (the async §5.2.3
	// switch). They are scheduled only at flush, after the query's own
	// write-backs published — a canceled query must leave no trace, not even
	// a sweep.
	sweeps []deferredSweep

	// span is the query's root trace span; the zero Span when untraced.
	// Cleaning spans attach under the engine's per-operator span instead
	// (threaded through CleanSelect); this one anchors flush's publish span.
	span trace.Span

	decisions []Decision
}

// ctxCheckEvery is how many rows the cleaning hot loops process between
// cancellation polls.
const ctxCheckEvery = 1024

// ctxErr polls the query's context; non-nil means the query must unwind.
func (qc *queryCtx) ctxErr() error {
	if qc.ctx == nil {
		return nil
	}
	if err := qc.ctx.Err(); err != nil {
		return fmt.Errorf("core: query aborted: %w", err)
	}
	return nil
}

// deferredSweep is a background full clean started at flush.
type deferredSweep struct {
	table string
	rule  *dc.Constraint
	fd    dc.FDSpec
}

// submit buffers one write-back for publication at query end.
func (qc *queryCtx) submit(req *applyReq) { qc.pending = append(qc.pending, req) }

// deferFullClean buffers a background sweep's start for flush.
func (qc *queryCtx) deferFullClean(table string, rule *dc.Constraint, fd dc.FDSpec) {
	qc.sweeps = append(qc.sweeps, deferredSweep{table: table, rule: rule, fd: fd})
}

// flush publishes the buffered write-backs through the single-writer apply
// loop (blocking until the new epoch is live) and schedules any deferred
// background sweeps against the just-published state.
func (qc *queryCtx) flush() {
	pub := qc.span.Start("publish")
	if pub.Active() {
		// Tag each write-back so the apply loop can attach its WAL spans
		// (append + fsync latency) under this query's publish span.
		for _, req := range qc.pending {
			req.span = pub
		}
	}
	n := len(qc.pending)
	qc.s.w.submitAll(qc.pending)
	qc.pending = nil
	if pub.Active() {
		pub.End(trace.Int("requests", n))
	}
	for _, j := range qc.sweeps {
		// A query whose decision raced a completing sweep (it read the model
		// before the final chunk's switch mark, flushed after it) finds the
		// switch recorded and schedules nothing.
		if st := qc.s.w.current().tables[j.table]; st.cost == nil || !st.cost.Switched() {
			qc.s.bg.start(qc.s, j.table, j.rule, j.fd)
		}
	}
	qc.sweeps = nil
}

// Schema implements plan.Catalog against the query's epoch.
func (qc *queryCtx) Schema(name string) (*schema.Schema, bool) {
	st, ok := qc.snap.tables[name]
	if !ok {
		return nil, false
	}
	return st.pt.Schema, true
}

// ptables materializes the executor's table map from the epoch. The
// executor swaps in the query-local generations as CleanSelect returns them.
func (qc *queryCtx) ptables() map[string]*ptable.PTable {
	out := make(map[string]*ptable.PTable, len(qc.snap.tables))
	for name, st := range qc.snap.tables {
		out[name] = st.pt
	}
	return out
}

// pt returns the query's current view of a relation: the local overlay if
// this query already applied fixes, the epoch's generation otherwise.
func (qc *queryCtx) pt(name string) *ptable.PTable {
	if p, ok := qc.local[name]; ok {
		return p
	}
	if st, ok := qc.snap.tables[name]; ok {
		return st.pt
	}
	return nil
}

// applyLocal merges a delta copy-on-write into the query's overlay and
// returns the number of updated cells.
func (qc *queryCtx) applyLocal(name string, delta *ptable.Delta) int {
	cur := qc.pt(name)
	if cur == nil || delta.Len() == 0 {
		return 0
	}
	next, updated := cur.ApplyCOW(delta)
	qc.setLocal(name, next)
	return updated
}

// setLocal makes pt the query's overlay generation of a relation.
func (qc *queryCtx) setLocal(name string, pt *ptable.PTable) {
	if qc.local == nil {
		qc.local = make(map[string]*ptable.PTable, 2)
	}
	qc.local[name] = pt
}

// checked returns the query's view of the rule's checked set on the table:
// its private clone once it marked under the rule, the snapshot's set before.
func (qc *queryCtx) checked(table, rule string) *posSet {
	if set, ok := qc.marked[table+"\x00"+rule]; ok {
		return set
	}
	return qc.snap.tables[table].checked[rule]
}

// private returns the query's private clone of the rule's checked set,
// cloning the snapshot's on first use; the query marks by adding to it.
func (qc *queryCtx) private(table, rule string) *posSet {
	key := table + "\x00" + rule
	if qc.marked[key] == nil {
		if qc.marked == nil {
			qc.marked = make(map[string]*posSet, 2)
		}
		qc.marked[key] = qc.snap.tables[table].checked[rule].with()
	}
	return qc.marked[key]
}

// CleanSelect implements engine.Cleaner: the cleanσ operator. It cleans
// against the query's snapshot, applies fixes to the query-local overlay
// (returned so downstream operators read them), and routes the same delta
// through the session's single-writer apply loop. It returns the candidate
// rows — rows, then each rule's relaxation extras not already among them —
// which the engine re-qualifies against the overlay; the overlay is built by
// ApplyCOW, so an input row whose tuple no fix touched is shared with the
// snapshot and needs no re-test. sp is the engine's cleanselect operator
// span (zero when untraced); detect/decision/repair spans for each rule nest
// under it.
func (qc *queryCtx) CleanSelect(tableName string, rows []int, pred expr.Pred, rules []*dc.Constraint, m *detect.Metrics, sp trace.Span) (*ptable.PTable, []int, error) {
	if err := qc.ctxErr(); err != nil {
		return nil, nil, err
	}
	st, ok := qc.snap.tables[tableName]
	if !ok {
		return nil, nil, fmt.Errorf("core: clean: %w %q", ErrUnknownTable, tableName)
	}
	var resultSet *posSet // built on the first extras
	for _, rule := range rules {
		if err := qc.ctxErr(); err != nil {
			return nil, nil, err
		}
		var extra []int
		var err error
		if fd, isFD := rule.AsFD(); isFD {
			extra, err = qc.cleanFD(st, tableName, rule, fd, rows, pred, m, sp)
		} else {
			extra, err = qc.cleanDC(st, tableName, rule, rows, m, sp)
		}
		if err != nil {
			return nil, nil, err
		}
		if len(extra) > 0 && resultSet == nil {
			resultSet = new(posSet)
			for _, r := range rows {
				resultSet.add(r)
			}
		}
		for _, x := range extra {
			if resultSet.add(x) {
				rows = append(rows, x)
			}
		}
	}
	return qc.pt(tableName), rows, nil
}
