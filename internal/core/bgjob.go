package core

import (
	"context"

	"daisy/internal/bgclean"
	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/value"
)

// fdSweepJob is the body of one background full-clean job: the §5.2.3
// strategy switch executed asynchronously. The scheduler drives the sweep as
// adaptively sized, segment-aligned row ranges; each chunk repairs the
// violating, still-unchecked FD groups anchored in it (a group belongs to
// the chunk holding its first member) and routes the delta through the
// session's single-writer apply loop, publishing one copy-on-write epoch per
// chunk. Concurrent queries ride the advancing epochs: groups a published
// chunk marked checked are skipped by their scope pass, and a group a racing
// query fixes first is dropped idempotently by the writer exactly as racing
// queries coalesce among themselves.
//
// Convergence: per-group fixes are pure functions of original values —
// P(rhs|lhs) over the group's full membership, P(lhs|rhs) over the
// relation-wide rhs-partner set, both read off the group index — so the
// quiesced state is byte-identical to a synchronous full clean from the same
// pre-switch state, for any chunking, cancellation point, or query
// interleaving.
type fdSweepJob struct {
	s     *Session
	table string
	rule  *dc.Constraint
	fd    dc.FDSpec

	rows int
}

// newFDSweepJob sizes a sweep over the relation's current length (registered
// relations never grow during serving, so the row total is fixed).
func newFDSweepJob(s *Session, table string, rule *dc.Constraint, fd dc.FDSpec, rows int) *fdSweepJob {
	return &fdSweepJob{s: s, table: table, rule: rule, fd: fd, rows: rows}
}

// Total implements bgclean.Job.
func (j *fdSweepJob) Total() int { return j.rows }

// RunChunk implements bgclean.Job: clean the groups anchored in rows
// [lo, hi) against the latest published epoch and publish the result as one
// new epoch. Each chunk is atomic — its delta and checked-group marks land
// in a single writer request — which is what makes mid-sweep cancellation
// leave a valid, resumable state. Any chunking yields the same converged
// bytes: groups anchor at their first member, so chunk scopes partition the
// violating groups however the scheduler sizes the ranges.
func (j *fdSweepJob) RunChunk(ctx context.Context, lo, hi int) (bgclean.ChunkResult, error) {
	var res bgclean.ChunkResult
	if err := ctx.Err(); err != nil {
		return res, err
	}
	st := j.s.w.current().tables[j.table]
	idx := st.reg.fdIndex(st.pt, j.rule.Name, j.fd)

	checked := st.checkedGroups[j.rule.Name]
	scope, keys := idx.violatingScopeIn(lo, hi, func(k value.MapKey) bool { return checked[k] })

	req := &applyReq{table: j.table, rule: j.rule.Name}
	var m detect.Metrics
	if len(scope) > 0 {
		// Same fix semantics as every other FD path: the index's fixes read
		// whole groups and relation-wide rhs partners, so the chunk's bytes
		// match a monolithic clean of the same groups.
		base := st.pt
		delta := idx.repair(detect.NewPTableView(base), scope, j.fd, &m)
		applied, updated := base.ApplyCOW(delta)
		m.Updates += int64(updated)
		req.delta, req.base, req.applied, req.groups = delta, base, applied, keys
		res.Groups, res.Cells = len(keys), updated
	}
	if hi >= j.rows && st.cost != nil {
		// The sweep quiesces with this chunk: record the switch so the cost
		// model charges subsequent queries only query cost (§5.2.3).
		req.markSwitched = true
	}
	// Publish — one epoch per chunk (racing query write-backs may coalesce
	// into the same batch; the epoch still advances per batch).
	j.s.w.submit(req)
	j.s.metricsMu.Lock()
	j.s.Metrics.Add(m)
	j.s.metricsMu.Unlock()
	return res, nil
}

// enqueueSweep schedules (dedup per table/rule) a background full clean.
// Called from queryCtx.flush after the triggering query's own write-backs
// published, so the sweep starts from a state where the query's scope is
// already checked. A query whose decision raced a completing sweep
// — it read the model pre-markSwitched, flushed post-completion — finds the
// switch already recorded and schedules nothing.
func (s *Session) enqueueSweep(table string, rule *dc.Constraint, fd dc.FDSpec) {
	st := s.w.current().tables[table]
	if st.cost != nil && st.cost.Switched() {
		return // the sweep (or an inline full clean) already finished
	}
	job := newFDSweepJob(s, table, rule, fd, st.pt.Len())
	if _, fresh := s.bg.Enqueue(table, rule.Name, job); fresh {
		// Journal the enqueue so a crash mid-sweep resumes the clean on Open
		// (from the recovered checked-set bookkeeping, not from scratch).
		s.w.logSweep(table, rule.Name)
	}
}

// CleanInBackground schedules a background full-clean sweep of one FD rule
// over one registered relation without waiting for the §5.2.3 cost
// inequality to flip — the experimental hook direct sweep measurements (e.g.
// the segment-skip benchmark) use. It reports whether a sweep is now live
// for (table, rule); a live job for the same table and rule dedups, so calling
// it under an already-running sweep joins that sweep. Only FD rules sweep in
// the background: an unknown table, an unknown rule, a rule the table lacks
// columns for, or a general DC returns false. Track the sweep through
// CleaningStatus / WaitCleaning.
func (s *Session) CleanInBackground(table, rule string) bool {
	snap := s.w.current()
	st, ok := snap.tables[table]
	if !ok {
		return false
	}
	for _, r := range snap.rules {
		if r.Name != rule || (r.Table != "" && r.Table != table) || !hasColumns(st.pt.Schema, r) {
			continue
		}
		fd, isFD := r.AsFD()
		if !isFD {
			return false
		}
		job := newFDSweepJob(s, table, r, fd, st.pt.Len())
		id, fresh := s.bg.Enqueue(table, rule, job)
		if fresh {
			s.w.logSweep(table, rule)
		}
		return id != 0
	}
	return false
}

var _ bgclean.Job = (*fdSweepJob)(nil)
