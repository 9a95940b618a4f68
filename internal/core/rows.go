package core

import (
	"context"
	"fmt"
	"iter"

	"daisy/internal/detect"
	"daisy/internal/engine"
	"daisy/internal/metrics"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/trace"
	"daisy/internal/uncertain"
)

// Rows is a streaming cursor over a cleaned query result. It enumerates the
// qualifying tuples directly from the query's snapshot (plus its private
// overlay of fixes) without materializing a standalone result table, so the
// caller never holds the whole answer unless it asks to.
//
//	rows, err := s.QueryContext(ctx, "SELECT zip, city FROM cities")
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		t := rows.Row()
//		...
//	}
//	if err := rows.Err(); err != nil { ... }
//
// A Rows is not safe for concurrent use. A tuple from Row is valid until the
// next Next: a projected result fills one reused tuple from the column map,
// so a caller that keeps a row past Next copies it (Result materializes the
// whole answer). Cells alias immutable epoch state and must not be mutated.
type Rows struct {
	fr  *engine.Frame
	pos int          // index into fr.Rows of the current row; -1 before the first Next
	row ptable.Tuple // the reused tuple Row fills when fr has a column map

	ctx    context.Context
	cancel context.CancelFunc // releases the WithTimeout timer, if any

	err    error
	closed bool

	// release decrements the inflight gauge. A streaming query counts as in
	// flight for the lifetime of the cursor, not just of execution, so it is
	// released on Close, on a context error observed by Next, or (for an
	// abandoned cursor) by the context.AfterFunc registered as stop. The
	// closure is idempotent: every path may call it.
	release func()
	stop    func() bool // cancels the AfterFunc; nil when ctx can never fire

	streamed *metrics.Counter // rows enumerated; nil-safe

	plan      string
	decisions []Decision
	metrics   detect.Metrics
	trace     *trace.Trace
}

// Next advances to the next result tuple. It returns false when the result
// is exhausted, the cursor is closed, or the query's context is done — in
// the latter case Err reports the cancellation.
func (r *Rows) Next() bool {
	if r == nil || r.closed || r.err != nil || r.fr == nil {
		return false
	}
	if r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			r.err = fmt.Errorf("core: result enumeration aborted: %w", err)
			if r.release != nil {
				r.release()
			}
			return false
		}
	}
	if r.pos+1 >= len(r.fr.Rows) {
		return false
	}
	r.pos++
	r.streamed.Inc()
	return true
}

// Row returns the current tuple. Valid only after a Next call that returned
// true, and only until the next Next: a projected row is one reused tuple,
// filled from the column map, whose ID is the result index. Its cells alias
// immutable epoch state and must not be mutated.
func (r *Rows) Row() *ptable.Tuple {
	t := r.fr.PT.At(r.fr.Rows[r.pos])
	if r.fr.Cols == nil {
		return t
	}
	if r.row.Cells == nil {
		r.row.Cells = make([]uncertain.Cell, len(r.fr.Cols))
	}
	for i, c := range r.fr.Cols {
		r.row.Cells[i] = t.Cells[c]
	}
	r.row.ID = int64(r.pos)
	return &r.row
}

// All adapts the cursor to a Go 1.23 range-over-func iterator yielding
// (result index, tuple). Each tuple is Row's and valid until the loop
// advances. Breaking out of the range loop stops enumeration; check Err
// afterwards for a mid-iteration cancellation.
func (r *Rows) All() iter.Seq2[int, *ptable.Tuple] {
	return func(yield func(int, *ptable.Tuple) bool) {
		for i := 0; r.Next(); i++ {
			if !yield(i, r.Row()) {
				return
			}
		}
	}
}

// Err returns the error that stopped enumeration, if any (a canceled or
// expired context surfaces here once Next returns false).
func (r *Rows) Err() error { return r.err }

// Close releases the cursor and ends the query's inflight count. It is
// idempotent and safe on a nil receiver.
func (r *Rows) Close() error {
	if r == nil || r.closed {
		return nil
	}
	r.closed = true
	if r.stop != nil {
		r.stop()
	}
	if r.cancel != nil {
		r.cancel()
	}
	if r.release != nil {
		r.release()
	}
	return nil
}

// Len returns the number of result tuples.
func (r *Rows) Len() int {
	if r.fr == nil {
		return 0
	}
	return len(r.fr.Rows)
}

// Schema describes the result columns.
func (r *Rows) Schema() *schema.Schema {
	if r.fr == nil {
		return nil
	}
	return r.fr.Schema
}

// Plan returns the executed (or, under WithExplain, the planned) logical
// plan.
func (r *Rows) Plan() string { return r.plan }

// Decisions returns the per-rule cleaning decisions taken during the query.
func (r *Rows) Decisions() []Decision { return r.decisions }

// Metrics returns the query's work counters.
func (r *Rows) Metrics() detect.Metrics { return r.metrics }

// Trace returns the query's span tree, or nil unless the query ran under
// WithTrace (or was sampled via Options.TraceSampleRate). The trace is
// complete by the time Rows is returned — rendering it does not race the
// writer.
func (r *Rows) Trace() *trace.Trace { return r.trace }

// Result materializes the remaining full result into the classic Result
// shape and closes the cursor. Query/Run are thin wrappers over this.
func (r *Rows) Result() *Result {
	res := &Result{Plan: r.plan, Decisions: r.decisions, Metrics: r.metrics}
	if r.fr != nil {
		res.Rows = r.fr.Materialize()
	} else {
		res.Rows = ptable.New("result", schema.MustNew())
	}
	r.Close()
	return res
}
