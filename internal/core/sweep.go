package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/ptable"
)

// This file is the background full clean: the §5.2.3 strategy switch run
// asynchronously. When the cost inequality flips, the triggering query
// cleans only its own scope and the session's sweeper walks the relation in
// row-range chunks. Each chunk repairs the violating, still-unchecked FD
// groups anchored in it (a group belongs to the chunk holding its first
// member) and routes them through the single-writer apply loop, publishing
// one copy-on-write epoch per chunk. Concurrent queries ride the advancing
// epochs: groups a published chunk marked checked are skipped by their scope
// pass, and a group a racing query fixes first is dropped idempotently by
// the writer, exactly as racing queries coalesce among themselves.
//
// Convergence: per-group fixes are pure functions of original values —
// P(rhs|lhs) over the group's full membership, P(lhs|rhs) over the
// relation-wide rhs-partner set, both read off the group index — and
// anchoring partitions the violating groups for any chunking. The inline
// full clean runs the same chunk body over [0, n), so the quiesced state is
// byte-identical to it from the same pre-switch state, for any chunking,
// cancellation point or query interleaving.
//
// The sweeper owns the rest:
//   - one runner goroutine, started by the first sweep, runs sweeps in FIFO
//     order;
//   - at most one live (pending or running) sweep per (table, rule):
//     starting a live one joins it;
//   - between chunks the runner waits while query write-backs are queued on
//     the writer (backpressure), and stops on CancelCleaning or Close.
//     Chunks are atomic, so a stopped sweep leaves every completed chunk's
//     groups repaired and checked and every other group as dirty as before;
//     a later sweep or query resumes from the checked sets alone;
//   - chunk sizes adapt to the observed chunk latency (nextChunkRows);
//   - the history of every sweep: CleaningStatus reports it, and the
//     checkpointer stores the pairs whose latest sweep did not finish, which
//     Open resumes.

// Chunk sizing. A chunk covers whole storage segments, so its copy-on-write
// clones never straddle an extra segment; the first chunk is one segment.
const (
	sweepMaxChunk    = 128 * ptable.SegmentSize
	sweepTargetChunk = 5 * time.Millisecond   // per-chunk latency the sizing steers toward
	sweepPoll        = 200 * time.Microsecond // backpressure re-check cadence
)

// CleaningState is a background sweep's lifecycle state.
type CleaningState int

// Background sweep states.
const (
	CleaningPending  CleaningState = iota // queued, not yet started
	CleaningRunning                       // the runner is sweeping chunks
	CleaningDone                          // every chunk published
	CleaningCanceled                      // stopped at a chunk boundary; state valid, resumable
)

func (s CleaningState) String() string {
	switch s {
	case CleaningPending:
		return "pending"
	case CleaningRunning:
		return "running"
	case CleaningDone:
		return "done"
	case CleaningCanceled:
		return "canceled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s CleaningState) Terminal() bool { return s == CleaningDone || s == CleaningCanceled }

// CleaningJob is a point-in-time snapshot of one background sweep.
type CleaningJob struct {
	Table string
	Rule  string
	State CleaningState

	// RowsDone / RowsTotal measure sweep progress in rows; ChunksDone counts
	// the chunks run so far (each published at least one epoch) and
	// ChunkRows is the current adaptive chunk size.
	RowsDone   int
	RowsTotal  int
	ChunksDone int
	ChunkRows  int
	// GroupsCleaned / CellsUpdated accumulate the chunks' repair work.
	GroupsCleaned int
	CellsUpdated  int
	// BackpressureWaits counts the chunk boundaries at which the runner
	// yielded to queued query write-backs.
	BackpressureWaits int

	// Elapsed is the sweep time so far: chunk execution only, backpressure
	// waits excluded (final once Terminal).
	Elapsed time.Duration
	// ETA estimates the remaining sweep time from the per-row pace; zero
	// until a chunk has taken measurable time, and once the sweep is
	// terminal.
	ETA time.Duration
	// LastChunkDuration is how long the most recent chunk took (zero before
	// the first). Against TargetChunkTime, the latency the chunk sizing
	// steers toward, it shows whether ChunkRows is growing or shrinking.
	LastChunkDuration time.Duration
	TargetChunkTime   time.Duration
}

// sweep is one background full clean of an FD rule over a relation.
type sweep struct {
	ref  sweepRef
	rule *dc.Constraint
	fd   dc.FDSpec
	// s pins the session only while the sweep is live: finishLocked drops
	// it, so an abandoned Session can be finalized while the runner parks.
	s *Session

	state    CleaningState
	canceled bool // honoured at the next chunk boundary

	rowsDone, rowsTotal   int
	chunkRows, chunksDone int
	groups, cells, yields int
	elapsed, lastChunk    time.Duration
}

// status snapshots the sweep; the caller holds the sweeper's mutex.
func (j *sweep) status() CleaningJob {
	st := CleaningJob{
		Table: j.ref.table, Rule: j.ref.rule, State: j.state,
		RowsDone: j.rowsDone, RowsTotal: j.rowsTotal,
		ChunksDone: j.chunksDone, ChunkRows: j.chunkRows,
		GroupsCleaned: j.groups, CellsUpdated: j.cells, BackpressureWaits: j.yields,
		Elapsed: j.elapsed, LastChunkDuration: j.lastChunk, TargetChunkTime: sweepTargetChunk,
	}
	// Chunks can resolve to 0ns on a coarse clock: with no pace signal the
	// ETA stays at its "unknown" zero rather than extrapolating a zero rate.
	if !j.state.Terminal() && j.rowsDone > 0 && j.rowsDone < j.rowsTotal && j.elapsed > 0 {
		st.ETA = j.elapsed / time.Duration(j.rowsDone) * time.Duration(j.rowsTotal-j.rowsDone)
	}
	return st
}

// sweeper runs the session's background sweeps. It holds the writer and the
// instruments, never the Session, so its goroutine does not keep a dropped
// session alive. All methods are safe for concurrent use.
type sweeper struct {
	w     *writer
	instr *sessionInstr
	// hold, when set, keeps the backpressure signal raised beside the
	// writer's queue depth. Only tests set it, before the first sweep.
	hold func() bool

	mu   sync.Mutex
	cond *sync.Cond
	// queue is FIFO; live holds the pending or running sweep per pair;
	// history keeps every sweep in start order.
	queue   []*sweep
	live    map[sweepRef]*sweep
	history []*sweep

	closed     bool
	runnerUp   bool
	runnerDone chan struct{}
}

func newSweeper(w *writer, instr *sessionInstr) *sweeper {
	sw := &sweeper{w: w, instr: instr, live: make(map[sweepRef]*sweep), runnerDone: make(chan struct{})}
	sw.cond = sync.NewCond(&sw.mu)
	return sw
}

// start schedules a sweep of an FD rule over a registered relation, or
// joins the live one for the pair, and reports whether a sweep is live
// (false once the sweeper is closed). A new sweep is journaled before the
// runner can take it, so its record precedes its chunks' in the log.
func (sw *sweeper) start(s *Session, table string, rule *dc.Constraint, fd dc.FDSpec) bool {
	ref := sweepRef{table: table, rule: rule.Name}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.closed {
		return false
	}
	if _, ok := sw.live[ref]; ok {
		return true
	}
	sw.w.logSweep(table, rule.Name)
	rows := sw.w.current().tables[table].pt.Len() // registered relations never grow
	j := &sweep{ref: ref, rule: rule, fd: fd, s: s, rowsTotal: rows, chunkRows: ptable.SegmentSize}
	sw.live[ref] = j
	sw.history = append(sw.history, j)
	sw.queue = append(sw.queue, j)
	if !sw.runnerUp {
		sw.runnerUp = true
		go sw.run()
	}
	sw.cond.Broadcast()
	return true
}

// status snapshots every sweep ever started, in start order.
func (sw *sweeper) status() []CleaningJob {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	out := make([]CleaningJob, len(sw.history))
	for i, j := range sw.history {
		out[i] = j.status()
	}
	return out
}

// unfinished lists, sorted, the pairs whose latest sweep has not reached
// Done, canceled ones included: what a checkpoint stores for Open to
// resume, matching what replaying the log's sweep and switch records gives.
func (sw *sweeper) unfinished() []sweepRef {
	sw.mu.Lock()
	latest := make(map[sweepRef]CleaningState)
	for _, j := range sw.history {
		latest[j.ref] = j.state
	}
	sw.mu.Unlock()
	var out []sweepRef
	for ref, st := range latest {
		if st != CleaningDone {
			out = append(out, ref)
		}
	}
	sortSweepRefs(out)
	return out
}

func sortSweepRefs(refs []sweepRef) {
	sort.Slice(refs, func(a, b int) bool {
		if refs[a].table != refs[b].table {
			return refs[a].table < refs[b].table
		}
		return refs[a].rule < refs[b].rule
	})
}

// cancel asks the live sweep of the pair to stop at its next chunk boundary
// and reports whether one was live.
func (sw *sweeper) cancel(table, rule string) bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	j, ok := sw.live[sweepRef{table: table, rule: rule}]
	if ok {
		j.canceled = true
	}
	return ok
}

// wait blocks until no sweep is live or ctx is done.
func (sw *sweeper) wait(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		sw.mu.Lock()
		sw.cond.Broadcast()
		sw.mu.Unlock()
	})
	defer stop()
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for len(sw.live) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		sw.cond.Wait()
	}
	return nil
}

// close cancels every live sweep and waits for the runner to stop; a chunk
// in flight completes (and publishes) first. Idempotent: every caller
// returns once the runner is gone.
func (sw *sweeper) close() {
	sw.mu.Lock()
	sw.closed = true
	up := sw.runnerUp
	sw.cond.Broadcast()
	sw.mu.Unlock()
	if up {
		<-sw.runnerDone
	}
}

// run is the runner goroutine: pop, sweep, repeat. After close it drains
// the queue, canceling whatever it pops.
func (sw *sweeper) run() {
	defer close(sw.runnerDone)
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for {
		for len(sw.queue) == 0 && !sw.closed {
			sw.cond.Wait()
		}
		if len(sw.queue) == 0 {
			return
		}
		j := sw.queue[0]
		sw.queue = sw.queue[1:]
		sw.sweepLocked(j)
	}
}

// sweepLocked runs one sweep chunk by chunk, releasing the mutex while a
// chunk runs. It always runs at least one chunk, so an empty relation gets
// one (0, 0) chunk and its switch mark.
func (sw *sweeper) sweepLocked(j *sweep) {
	for {
		yields := j.yields
		if !sw.gateLocked(j) {
			sw.finishLocked(j, CleaningCanceled)
			return
		}
		j.state = CleaningRunning
		lo, hi := j.rowsDone, min(j.rowsDone+j.chunkRows, j.rowsTotal)
		sw.mu.Unlock()
		t0 := time.Now()
		groups, cells := j.s.sweepChunk(j.ref.table, j.rule, j.fd, lo, hi)
		took := time.Since(t0)
		sw.instr.sweepChunks.Inc()
		sw.instr.sweepRows.Add(int64(hi - lo))
		sw.instr.sweepChunkSec.ObserveDuration(took)
		sw.mu.Lock()
		j.elapsed += took
		j.lastChunk = took
		j.rowsDone = hi
		j.chunksDone++
		j.groups += groups
		j.cells += cells
		j.chunkRows = nextChunkRows(j.chunkRows, hi-lo, took, j.yields > yields)
		sw.cond.Broadcast() // progress for status and wait
		if hi >= j.rowsTotal {
			sw.finishLocked(j, CleaningDone)
			return
		}
	}
}

// gateLocked waits, polling with the mutex released, while query
// write-backs are queued on the writer, counting one yield per wait. It
// returns false when the sweep must stop: canceled or closed, which it
// re-checks on every poll.
func (sw *sweeper) gateLocked(j *sweep) bool {
	for waited := false; !sw.closed && !j.canceled; waited = true {
		if sw.w.depth() == 0 && (sw.hold == nil || !sw.hold()) {
			return true
		}
		if !waited {
			j.yields++
			sw.instr.sweepYields.Inc()
		}
		sw.mu.Unlock()
		time.Sleep(sweepPoll)
		sw.mu.Lock()
	}
	return false
}

// finishLocked moves a sweep to a terminal state and drops its session.
func (sw *sweeper) finishLocked(j *sweep, st CleaningState) {
	j.state = st
	j.s = nil
	delete(sw.live, j.ref)
	sw.cond.Broadcast()
}

// nextChunkRows sizes the next chunk from the last one: a chunk that
// followed a backpressure yield halves the size, so queries get epoch
// boundaries to slot into sooner; otherwise the size scales toward
// sweepTargetChunk by at most 2x either way. A full chunk that took no
// measurable time (a coarse clock) is far under target and doubles; a short
// final chunk (ran < cur) carries no signal. The result is whole segments,
// between one and sweepMaxChunk.
func nextChunkRows(cur, ran int, took time.Duration, yielded bool) int {
	next := cur
	switch {
	case yielded:
		next = cur / 2
	case ran == cur && took <= 0:
		next = 2 * cur
	case ran == cur:
		next = int(float64(cur) * float64(sweepTargetChunk) / float64(took))
		next = min(max(next, cur/2), 2*cur)
	}
	next = min(next, sweepMaxChunk)
	return max(next-next%ptable.SegmentSize, ptable.SegmentSize)
}

// sweepChunk is one chunk of a sweep: clean the groups anchored in rows
// [lo, hi) against the latest published epoch and publish them as one new
// epoch. Only the runner calls it.
func (s *Session) sweepChunk(table string, rule *dc.Constraint, fd dc.FDSpec, lo, hi int) (groups, cells int) {
	st := s.w.current().tables[table]
	var m detect.Metrics
	req, _, cells := cleanFDRange(st.reg.fdIndex(st.pt, rule.Name, fd), st.pt, table, rule.Name, fd, lo, hi,
		st.checked[rule.Name], &m)
	groups = len(req.marks) // before the writer filters racing duplicates
	s.w.submit(req)
	s.metricsMu.Lock()
	s.Metrics.Add(m)
	s.metricsMu.Unlock()
	return groups, cells
}

// cleanFDRange is the full-clean body every full clean runs: a sweep chunk
// over [lo, hi), the inline full clean over [0, n). It repairs each
// violating group of the FD whose first member lies in the range and that
// checked does not hold, applies the fixes copy-on-write to base, and
// returns the write-back with the rows it fixed and the cells it updated.
// The range that reaches the relation's end marks the switch in the cost
// model, so later queries pay only query cost (§5.2.3); replay reads that
// mark as the sweep of (table, rule) having finished.
func cleanFDRange(idx *fdIndex, base *ptable.PTable, table, rule string, fd dc.FDSpec, lo, hi int, checked *posSet, m *detect.Metrics) (req *applyReq, fixed, cells int) {
	req = &applyReq{table: table, rule: rule, markSwitched: hi >= base.Len()}
	scope, anchors := idx.violatingScopeIn(lo, hi, checked)
	if len(scope) == 0 {
		return req, 0, 0
	}
	delta := idx.repair(detect.NewPTableView(base), scope, fd, m)
	applied, cells := base.ApplyCOW(delta)
	m.Updates += int64(cells)
	req.delta, req.base, req.applied, req.marks = delta, base, applied, anchors
	return req, len(scope), cells
}

// CleanInBackground schedules a background full-clean sweep of one FD rule
// over one registered relation without waiting for the §5.2.3 cost
// inequality to flip. It reports whether a sweep is now live for (table,
// rule); calling it under a live sweep of the pair joins that sweep. Only FD
// rules sweep in the background: an unknown table, an unknown rule, a rule
// the table lacks columns for, or a general DC returns false. Track the
// sweep through CleaningStatus / WaitCleaning.
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
		return isFD && s.bg.start(s, table, r, fd)
	}
	return false
}

// CleaningStatus reports every background sweep the session has started, in
// start order: lifecycle state, chunk progress (each completed chunk
// published at least one epoch), repaired-group and cell-update counts,
// backpressure yields, elapsed time, and an ETA extrapolated from the pace.
func (s *Session) CleaningStatus() []CleaningJob { return s.bg.status() }

// WaitCleaning blocks until every background sweep has reached a terminal
// state or ctx is done. When every sweep is Done the published state is
// byte-identical to having run the switched full cleans synchronously; a
// canceled sweep leaves the valid, resumable partial state described on
// CancelCleaning.
func (s *Session) WaitCleaning(ctx context.Context) error { return s.bg.wait(ctx) }

// CancelCleaning stops the live background sweep of (table, rule) at its
// next chunk boundary, also while it waits out backpressure. The state stays
// valid and resumable: completed chunks' groups remain repaired and
// checked, untouched groups stay dirty, and a later query, re-triggered
// switch, CleanInBackground or reopen finishes the work.
func (s *Session) CancelCleaning(table, rule string) bool { return s.bg.cancel(table, rule) }
