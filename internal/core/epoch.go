package core

import (
	"errors"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"daisy/internal/cost"
	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/thetajoin"
	"daisy/internal/trace"
	"daisy/internal/wal"
)

// snapshot is one immutable epoch of the session's cleaning state. Queries
// atomically load the current snapshot and plan/execute/relax against it
// without any further synchronization; every mutation (delta application,
// checked-set growth, cost-model updates, registration, rule binding)
// produces a new snapshot and publishes it with a single atomic store.
type snapshot struct {
	epoch  uint64
	tables map[string]*tableState
	rules  []*dc.Constraint
}

// tableState is the per-relation cleaning state of one epoch: only what
// changes from epoch to epoch. All fields are immutable once the snapshot is
// published: the writer derives a new tableState (shallow copy + replaced
// fields) instead of mutating in place. Everything derived from original
// values lives on the shared registration instead.
type tableState struct {
	// reg is the registration this state descends from: clones share it,
	// and only install and checkpoint decode create one. A relation keeps
	// its registration for the life of the session.
	reg *registration
	// pt is the probabilistic relation of this epoch. Deltas apply
	// copy-on-write (ptable.ApplyCOW), so older epochs keep reading their
	// generation while the writer publishes the next.
	pt *ptable.PTable
	// cost drives the §5.2.3 strategy decision. bind seeds it from the
	// statistics of the bound rules' FD indexes; it is replaced with an
	// updated copy on every recorded query.
	cost *cost.Model
	// checked holds, per rule, what cleaning has covered: the anchors of
	// the FD groups already repaired, or the positions of the tuples already
	// theta-join-checked under a general DC. The map and its sets are
	// frozen; mark clones and extends them.
	checked map[string]*posSet
	// rules lists the constraints bound to this registration: every added
	// rule that applies to the relation, bound by AddRule or install (in
	// whichever order the two ran) or restored by checkpoint decode.
	rules []*dc.Constraint
}

// registration is one installation of a relation — by Register, WAL replay
// or checkpoint decode — and owns every structure derived from its original
// (provenance) values: per rule, the FD group index, or the DC rank index
// with its Algorithm 2 range estimates. Cleaning never rewrites original
// values (§4.3), so every epoch of the registration shares these structures
// read-only. Each is built lazily, once, by whichever caller needs it first,
// from that caller's generation (any generation has the same originals); the
// registration holds no PTable, so it pins no generation.
type registration struct {
	// mu guards the index maps; builds run under it, so each index is built
	// exactly once. Lock order: writer.mu before mu.
	mu  sync.Mutex
	fds map[string]*fdIndex
	dcs map[string]*dcEntry
}

// dcEntry is a general DC rule's theta-join rank index together with the
// per-range violation estimates Algorithm 2 reads off it.
type dcEntry struct {
	ix  *thetajoin.Index
	est []thetajoin.RangeEstimate
}

func newTableState(pt *ptable.PTable) *tableState {
	return &tableState{
		reg: &registration{
			fds: make(map[string]*fdIndex),
			dcs: make(map[string]*dcEntry),
		},
		pt:      pt,
		checked: make(map[string]*posSet),
	}
}

// fdIndex returns the rule's FD group index, building it over pt on first
// use.
func (r *registration) fdIndex(pt *ptable.PTable, rule string, fd dc.FDSpec) *fdIndex {
	r.mu.Lock()
	defer r.mu.Unlock()
	ix := r.fds[rule]
	if ix == nil {
		ix = newFDIndex(pt, fd)
		r.fds[rule] = ix
	}
	return ix
}

// builtFDIndex returns the rule's FD group index, or nil if none is built.
func (r *registration) builtFDIndex(rule string) *fdIndex {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fds[rule]
}

// dcIndex returns the rule's rank index and range estimates, building both
// over view on first use (estimates over thetajoin.Partitions). Only the
// building caller traces the index build, as a dc_index span under parent.
func (r *registration) dcIndex(view detect.PTableView, rule *dc.Constraint, parent trace.Span) *dcEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.dcs[rule.Name]; e != nil {
		return e
	}
	sp := parent.Start("dc_index")
	ix := thetajoin.NewIndex(view, rule)
	if sp.Active() {
		sp.End(trace.Str("rule", rule.Name), trace.Int("rows", view.Len()))
	}
	e := &dcEntry{ix: ix, est: ix.EstimateErrors(view, thetajoin.Partitions)}
	r.dcs[rule.Name] = e
	return e
}

// hasColumns reports whether the schema carries every column the rule
// references — the condition for binding or sweeping the rule on a relation.
func hasColumns(sc *schema.Schema, rule *dc.Constraint) bool {
	return !slices.ContainsFunc(rule.Columns(), func(col string) bool { return !sc.Has(col) })
}

// bind appends rules to the relation's bound rules and reseeds its §5.2.3
// cost model, which reads — and so eagerly builds — the group index of every
// bound FD rule. AddRule and install share it.
func (st *tableState) bind(rules ...*dc.Constraint) {
	st.rules = append(slices.Clip(st.rules), rules...)
	st.cost = cost.New(st.pt.Len(), costEpsilon(st), costP(st))
}

// clone returns a shallow copy the writer may re-point fields on.
func (st *tableState) clone() *tableState {
	c := *st
	return &c
}

// derive starts a new epoch from s: the tables map is copied so entries can
// be replaced, table states themselves are cloned lazily via mutableTable.
func (s *snapshot) derive() *snapshot {
	next := &snapshot{epoch: s.epoch + 1, tables: make(map[string]*tableState, len(s.tables)), rules: s.rules}
	for name, st := range s.tables {
		next.tables[name] = st
	}
	return next
}

// mutableTable returns a clone of the named table state private to this
// derived snapshot, cloning at most once per derivation.
func (s *snapshot) mutableTable(name string, cloned map[string]bool) *tableState {
	st, ok := s.tables[name]
	if !ok {
		return nil
	}
	if !cloned[name] {
		st = st.clone()
		s.tables[name] = st
		cloned[name] = true
	}
	return s.tables[name]
}

// applyReq is one cleaning write-back routed through the single-writer apply
// loop: the delta a query computed against its snapshot, the bookkeeping
// that must land with it, and the ack channel the query blocks on.
type applyReq struct {
	table string
	rule  string

	// delta holds the candidate fixes (may be empty when only bookkeeping
	// changes, e.g. a DC pass that found no violations).
	delta *ptable.Delta
	// base/applied enable the adoption fast path: the generation the query
	// applied its delta to and the resulting generation. When the canonical
	// state still points at base (no racing write landed in between — always
	// true single-threaded), the writer adopts applied directly instead of
	// re-running the copy-on-write merge.
	base, applied *ptable.PTable
	// marks lists the positions to mark checked under the rule: FD group
	// anchors or DC tuple positions. Duplicate FD fixes from racing queries
	// coalesce idempotently: anchors and cells whose group is already
	// checked at apply time are dropped (the racing winner applied the
	// identical fix).
	marks []int

	// cost-model bookkeeping (§5.2.3), applied to a fresh model copy.
	// applyOne clears costRecord on a duplicate, so the WAL logs the
	// effective charge.
	costRecord               bool
	costQi, costEi, costEpsi int
	markSwitched             bool

	// span, when active, is the submitting query's publish span; the apply
	// loop attaches wal.append/wal.fsync children to it before acking done.
	span trace.Span

	done chan struct{}
}

// writer owns the session's canonical state. It is deliberately separate
// from Session so the apply goroutine holds no Session reference — an
// unreachable Session can then be finalized (closing the writer) even while
// the goroutine is parked.
type writer struct {
	// mu serializes every mutation of the canonical state: the apply loop,
	// registration, rule binding — and, in a durable
	// session, every WAL append, so the log's record order IS the state's
	// mutation order.
	mu   sync.Mutex
	snap atomic.Pointer[snapshot]

	applyCh chan *applyReq
	quit    chan struct{}
	started sync.Once
	// sendMu gates channel sends against close: a request is either enqueued
	// while the loop is guaranteed to drain it, or (post-close) applied
	// inline — never both, never neither.
	sendMu sync.Mutex
	closed atomic.Bool

	// loopRunning records (under sendMu, where started.Do runs) that the
	// apply goroutine exists; close waits on loopDone only then. closeDone
	// lets concurrent/racing close calls block until the first closer has
	// fully drained the loop and closed the log — idempotent AND ordered.
	loopRunning bool
	loopDone    chan struct{}
	closeDone   chan struct{}

	// wlog, when non-nil, is the session's write-ahead log; every apply
	// batch and logged mutation appends one record under mu before the
	// snapshot publishes. The durability state machine lives in
	// durability.go: durState tracks where the session sits
	// (healthy/retrying/degraded/reattached), walErr (under mu) keeps the
	// first failure of the current unhealthy period (cleared on recovery),
	// pending buffers records while a retry episode (retryDone non-nil) is
	// live, and lastLSN is the highest durably appended LSN — tracked here
	// because the checkpointer needs it even while the log is detached.
	// ckptNudge (non-nil iff durable) pokes the checkpointer after appends;
	// onPublish is a test hook observing (lsn, snapshot) pairs.
	wlog      *wal.Log
	walErr    error
	durState  DurabilityState
	durCfg    durabilityConfig
	pending   [][]byte
	retryDone chan struct{}
	lastLSN   uint64
	ckptNudge chan struct{}
	onPublish func(lsn uint64, snap *snapshot)

	// instr carries the session's apply-loop instruments (never nil — the
	// writer is only constructed by newMemSession).
	instr *sessionInstr
}

func newWriter(instr *sessionInstr, durCfg durabilityConfig) *writer {
	w := &writer{
		applyCh:   make(chan *applyReq, 64),
		quit:      make(chan struct{}),
		loopDone:  make(chan struct{}),
		closeDone: make(chan struct{}),
		durCfg:    durCfg,
		instr:     instr,
	}
	w.snap.Store(&snapshot{tables: make(map[string]*tableState)})
	return w
}

// appendLocked appends one record to the WAL (caller holds mu). A nil
// (detached/degraded) log or empty record is a no-op; queries never fail on
// a storage fault. Appends racing Close lose silently: the post-close
// inline-apply path keeps queries converging in memory, but their
// write-backs are not durable — documented on Session.Close.
//
// Failure handling is the durability state machine (durability.go): the WAL
// undoes a failed append by truncation so no LSN is consumed, which makes
// in-order retry safe — the record buffers in pending and a bounded backoff
// episode re-appends it off the query path. While an episode is live,
// subsequent records buffer behind it so mutation order is preserved.
// Exhausted retries (or an unrepairable torn tail) degrade: the log
// detaches, the directory keeps its last consistent prefix, and the
// checkpointer later re-attaches via a fresh full checkpoint.
func (w *writer) appendLocked(rec []byte) uint64 {
	lsn, _ := w.appendStatsLocked(rec)
	return lsn
}

// appendStatsLocked is appendLocked exposing the WAL's append statistics
// (frame size, fsync latency) so the apply loop can trace them. A buffered,
// failed, or no-op append returns the zero AppendResult.
func (w *writer) appendStatsLocked(rec []byte) (uint64, wal.AppendResult) {
	if w.wlog == nil || len(rec) == 0 {
		return 0, wal.AppendResult{}
	}
	if w.durState == DurabilityRetrying {
		w.pending = append(w.pending, rec)
		return 0, wal.AppendResult{}
	}
	res, err := w.wlog.Append(rec)
	if err != nil {
		if !errors.Is(err, wal.ErrClosed) {
			w.failAppendLocked(rec, err)
		}
		return 0, wal.AppendResult{}
	}
	w.lastLSN = res.LSN
	return res.LSN, res
}

// logSweep appends a sweep-enqueued record so recovery can resume the
// background clean.
func (w *writer) logSweep(table, rule string) {
	w.mu.Lock()
	w.appendLocked(encodeSweepRecord(table, rule))
	w.mu.Unlock()
	w.nudgeCheckpoint()
}

// logTail reports bytes appended since the last checkpoint rotation.
func (w *writer) logTail() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.wlog == nil {
		return 0
	}
	return w.wlog.TailSize()
}

// nudgeCheckpoint pokes the checkpointer without blocking.
func (w *writer) nudgeCheckpoint() {
	if w.ckptNudge == nil {
		return
	}
	select {
	case w.ckptNudge <- struct{}{}:
	default:
	}
}

// current returns the latest published epoch.
func (w *writer) current() *snapshot { return w.snap.Load() }

// depth reports how many apply requests are queued on the loop — the
// backpressure signal background sweeps yield to between chunks.
func (w *writer) depth() int { return len(w.applyCh) }

// mutateLogged runs fn against a derived snapshot under the writer lock and
// publishes the result — the path of the setup APIs. When fn succeeds and the
// session has a WAL, rec() renders the record (only then, so an in-memory
// session never encodes one) and it appends before the snapshot publishes;
// during replay wlog is nil and nothing is journaled.
func (w *writer) mutateLogged(rec func() []byte, fn func(next *snapshot, cloned map[string]bool) error) error {
	w.mu.Lock()
	next := w.current().derive()
	if err := fn(next, make(map[string]bool)); err != nil {
		w.mu.Unlock()
		return err
	}
	var lsn uint64
	if w.wlog != nil {
		lsn = w.appendLocked(rec())
	}
	w.snap.Store(next)
	w.instr.epoch.Set(int64(next.epoch))
	if w.onPublish != nil {
		w.onPublish(lsn, next)
	}
	w.mu.Unlock()
	w.nudgeCheckpoint()
	return nil
}

// submit routes one apply request through the single-writer loop and blocks
// until the request's epoch is published. After a session is closed the
// request is applied inline under the writer lock (queries racing Close
// still converge rather than deadlock).
func (w *writer) submit(req *applyReq) { w.submitAll([]*applyReq{req}) }

// submitAll routes a query's buffered write-backs through the single-writer
// loop and blocks until every one is published. The requests enqueue
// atomically (no racing query's request can interleave between them) and
// apply in order, typically coalescing into one batch and one published
// epoch. Once submitAll is entered the write-backs are committed: the caller
// must have finished its cancellation checks — cancellation can abandon the
// wait only by the session closing, never the application itself. After a
// session is closed the requests apply inline under the writer lock.
func (w *writer) submitAll(reqs []*applyReq) {
	if len(reqs) == 0 {
		return
	}
	for _, req := range reqs {
		req.done = make(chan struct{})
	}
	w.sendMu.Lock()
	if w.closed.Load() {
		w.sendMu.Unlock()
		w.applyBatch(reqs)
		return
	}
	w.started.Do(func() {
		w.loopRunning = true // under sendMu; close() reads it there
		go w.loop()
	})
	for _, req := range reqs {
		w.applyCh <- req
	}
	w.sendMu.Unlock()
	for _, req := range reqs {
		<-req.done
	}
}

// loop is the single-writer apply goroutine: it drains pending requests into
// a batch, applies them under the writer lock against one derived snapshot,
// publishes a single new epoch, and acks every waiter. Batching lets
// duplicate fixes from racing queries coalesce in one pass and bounds the
// number of snapshot allocations under load. On shutdown the queue is
// drained to completion — every enqueued request was sent before close, and
// its sender is blocked on the ack.
func (w *writer) loop() {
	defer close(w.loopDone)
	for {
		var first *applyReq
		select {
		case first = <-w.applyCh:
		case <-w.quit:
			for {
				select {
				case r := <-w.applyCh:
					w.applyBatch([]*applyReq{r})
				default:
					return
				}
			}
		}
		batch := []*applyReq{first}
	drain:
		for {
			select {
			case r := <-w.applyCh:
				batch = append(batch, r)
			default:
				break drain
			}
		}
		w.applyBatch(batch)
	}
}

func (w *writer) applyBatch(batch []*applyReq) {
	t0 := time.Now()
	var coalesced int64
	w.mu.Lock()
	next := w.current().derive()
	cloned := make(map[string]bool)
	for _, req := range batch {
		if applyOne(next, cloned, req) {
			coalesced++
		}
	}
	var lsn uint64
	var walStats wal.AppendResult
	var walStart time.Time
	var walDur time.Duration
	if w.wlog != nil {
		// Log post-filter: applyOne has dropped duplicate groups and cells
		// and cleared the cost bit of duplicates in place, so replaying the
		// record from the identical pre-state reproduces this exact
		// application (see persist.go).
		walStart = time.Now()
		lsn, walStats = w.appendStatsLocked(encodeApplyRecord(batch))
		walDur = time.Since(walStart)
	}
	w.snap.Store(next)
	w.instr.epoch.Set(int64(next.epoch))
	if w.onPublish != nil {
		w.onPublish(lsn, next)
	}
	w.mu.Unlock()
	for _, req := range batch {
		// Attach the batch's WAL timing under every traced submitter's publish
		// span — each sees the append its write-back rode on — strictly before
		// the ack, so the span lands before the query renders its trace.
		if req.span.Active() && walStats.Bytes > 0 {
			asp := req.span.Child("wal.append", walStart, walDur,
				trace.Int("bytes", walStats.Bytes), trace.Int64("lsn", int64(lsn)))
			if walStats.Sync > 0 {
				asp.Child("wal.fsync", walStart.Add(walDur-walStats.Sync), walStats.Sync)
			}
		}
		close(req.done)
	}
	w.instr.applyBatches.Inc()
	w.instr.applyRequests.Add(int64(len(batch)))
	w.instr.applyCoalesced.Add(coalesced)
	w.instr.batchSize.Observe(float64(len(batch)))
	w.instr.publishSec.ObserveDuration(time.Since(t0))
	w.nudgeCheckpoint()
}

// applyOne merges one request into the next epoch. FD requests coalesce
// idempotently: a group already marked checked — in a published epoch or by
// an earlier request of this batch — was repaired by an earlier (racing)
// query with the identical group-deterministic fix, so its cells and
// bookkeeping are dropped. DC requests apply verbatim (their rules have no
// checked groups to filter by): a range fix that a racing query already
// applied merges as a no-op (uncertain.Cell.Merge unions range sets), so
// duplicates are harmless.
//
// It reports whether the request coalesced to a duplicate.
func applyOne(next *snapshot, cloned map[string]bool, req *applyReq) (wasDuplicate bool) {
	st := next.mutableTable(req.table, cloned)
	duplicate, dropped := filterCheckedFD(st, req)
	if req.delta != nil && req.delta.Len() > 0 {
		if !dropped && req.applied != nil && st.pt == req.base {
			st.pt = req.applied
		} else {
			st.pt, _ = st.pt.ApplyCOW(req.delta)
		}
	}
	if len(req.marks) > 0 {
		mark(st, req.rule, req.marks)
	}
	// A duplicate request suppresses the cost record (the racing winner
	// already charged the work) but must NOT suppress markSwitched: the
	// sweep's final chunk may coalesce as a duplicate when racing queries
	// cleaned its groups first, yet the sweep is complete — dropping the
	// mark would leave ShouldSwitchToFull flipping forever and every later
	// query re-enqueueing a redundant sweep.
	req.costRecord = req.costRecord && !duplicate
	if st.cost != nil && (req.costRecord || req.markSwitched) {
		c := *st.cost
		if req.costRecord {
			c.RecordQuery(req.costQi, req.costEi, req.costEpsi)
		}
		if req.markSwitched {
			c.MarkSwitched()
		}
		st.cost = &c
	}
	return duplicate
}

// filterCheckedFD drops delta cells and anchors of FD groups that are
// already checked at apply time — including groups an earlier request of the
// same batch just marked on this clone. It reports whether the whole request
// turned out to be a duplicate of an earlier apply, and whether any part of
// it was dropped (which disables the adoption fast path). Every FD request
// finds its rule's index built: queries and sweeps build it to compute their
// marks, and replay to check them.
func filterCheckedFD(st *tableState, req *applyReq) (duplicate, dropped bool) {
	checked := st.checked[req.rule]
	if checked.len() == 0 {
		return false, false
	}
	idx := st.reg.builtFDIndex(req.rule)
	if idx == nil {
		return false, false // a general DC: its requests apply verbatim
	}
	fresh := req.marks[:0]
	for _, a := range req.marks {
		if checked.has(a) {
			dropped = true
			continue
		}
		fresh = append(fresh, a)
	}
	req.marks = fresh
	if dropped && req.delta != nil {
		for id := range req.delta.Cells {
			pos, ok := st.pt.Pos(id)
			if !ok || checked.has(idx.anchorOf(pos)) {
				delete(req.delta.Cells, id)
			}
		}
	}
	duplicate = dropped && len(req.marks) == 0 && (req.delta == nil || req.delta.Len() == 0)
	return duplicate, dropped
}

// mark adds positions to the rule's checked set on a cloned table state. The
// set and the rule map are cloned, not extended, so published epochs keep
// theirs.
func mark(st *tableState, rule string, ps []int) {
	checked := maps.Clone(st.checked)
	checked[rule] = st.checked[rule].with(ps...)
	st.checked = checked
}

// close stops the apply goroutine, waits for it to drain every enqueued
// request, then syncs and closes the write-ahead log. The ordering matters
// once durability sits under the loop: closing the log before the drain
// would lose acked write-backs that were still queued. Taking sendMu first
// makes the closed flag and in-flight channel sends mutually exclusive — a
// submitter that observed closed=false finishes its sends before close
// proceeds, and the loop's shutdown drain consumes them. Idempotent and
// safe for concurrent callers: late closers block until the first one has
// fully torn down (finalizer racing an explicit Close, or a sweep chunk
// racing Close, both resolve to one orderly shutdown).
func (w *writer) close() {
	w.sendMu.Lock()
	if !w.closed.CompareAndSwap(false, true) {
		w.sendMu.Unlock()
		<-w.closeDone
		return
	}
	close(w.quit)
	running := w.loopRunning
	w.sendMu.Unlock()
	if running {
		<-w.loopDone
	}
	// A live retry episode observes quit and exits promptly; its buffered
	// records get one final inline flush so a fault that healed before Close
	// still ends durable. If the flush cannot drain, degrade — dropping the
	// suffix keeps the directory at its last consistent prefix.
	w.waitRetryEpisode()
	w.mu.Lock()
	if w.durState == DurabilityRetrying {
		w.instr.walRetries.Inc()
		if !w.flushPendingLocked() {
			w.degradeLocked()
		}
	}
	if w.wlog != nil {
		if err := w.wlog.Close(); err != nil && w.walErr == nil {
			w.walErr = err
		}
	}
	w.mu.Unlock()
	close(w.closeDone)
}

// durabilityErr returns the first WAL failure the writer swallowed (nil in
// healthy and in-memory sessions).
func (w *writer) durabilityErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.walErr
}
