// Package bgclean implements the background full-clean scheduler: when the
// §5.2.3 cost inequality flips from incremental to full cleaning, the session
// no longer runs the full clean inside the triggering query — it enqueues a
// job here and returns after cleaning only its own scope. A single runner
// goroutine sweeps each job's relation chunk by chunk; every chunk routes its
// delta through the session's single-writer apply loop and publishes one
// copy-on-write epoch, so concurrent queries ride the advancing epochs and
// skip the regions the sweep has already cleaned.
//
// The scheduler owns job lifecycle only — what a chunk *does* is the Job
// implementation's business (core supplies the FD sweep). Lifecycle:
//
//   - dedup: at most one live (pending/running) job per (table, rule);
//     re-enqueueing returns the live job's id.
//   - backpressure: between chunks the runner polls the Options.Backpressure
//     probe and waits while interactive query traffic is queued on the
//     writer, so a sweep never starves foreground queries.
//   - cancellation: Close (Session.Close) or a per-job Cancel stops the sweep
//     at the next chunk boundary. Chunks are atomic (one apply each), so a
//     canceled job always leaves a valid state: every completed chunk's
//     groups are repaired and checked, every untouched group is exactly as
//     dirty as before, and a later query or re-enqueued job resumes from the
//     checked-set bookkeeping alone.
//   - adaptive chunk sizing: chunks are row ranges whose size adapts to the
//     observed per-chunk latency (steering toward Options.TargetChunkTime)
//     and halves after a backpressure yield, clamped to
//     [MinChunkRows, MaxChunkRows] and aligned to ChunkAlign so chunk clones
//     stay storage-segment-aligned. A sweep over mostly clean segments — the
//     common late-sweep regime, where the segment-skip scan makes chunks
//     nearly free — therefore grows its chunks instead of paying a fixed
//     epoch-publication toll every 4096 rows.
//   - progress: Status reports per-job row/chunk progress, repaired groups,
//     cell updates, elapsed time, and an ETA extrapolated from row pace.
package bgclean

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"daisy/internal/metrics"
)

// Job is the body of one background cleaning job, driven as row-range chunks
// the scheduler sizes adaptively. RunChunk must be atomic: either the
// chunk's repairs are fully published or nothing is (the contract that makes
// mid-sweep cancellation safe).
type Job interface {
	// Total returns the number of rows the sweep covers.
	Total() int
	// RunChunk cleans rows [lo, hi) and publishes their epoch. It is only
	// called from the scheduler's runner goroutine, with strictly ascending,
	// non-overlapping, gap-free ranges. A job over an empty relation still
	// receives one (0, 0) call so terminal bookkeeping runs.
	RunChunk(ctx context.Context, lo, hi int) (ChunkResult, error)
}

// ChunkResult reports one chunk's work for progress accounting.
type ChunkResult struct {
	// Groups is the number of violating groups repaired in this chunk.
	Groups int
	// Cells is the number of probabilistic cell updates the chunk published.
	Cells int
}

// State is a job's lifecycle state.
type State int

// Job lifecycle states.
const (
	Pending  State = iota // enqueued, not yet started
	Running               // the runner is sweeping chunks
	Done                  // all chunks published
	Canceled              // stopped at a chunk boundary; state valid, resumable
	Failed                // RunChunk returned an error other than cancellation
)

func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Done:
		return "done"
	case Canceled:
		return "canceled"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Canceled || s == Failed }

// Status is a point-in-time snapshot of one job's progress.
type Status struct {
	ID    int64
	Table string
	Rule  string
	State State

	// RowsDone / RowsTotal measure sweep progress in rows; ChunksDone counts
	// the chunks executed so far (every completed chunk published at least
	// one epoch) and ChunkRows is the current adaptive chunk size.
	RowsDone   int
	RowsTotal  int
	ChunksDone int
	ChunkRows  int
	// GroupsCleaned / CellsUpdated accumulate the chunks' repair work.
	GroupsCleaned int
	CellsUpdated  int
	// BackpressureWaits counts the chunk boundaries at which the runner
	// yielded to queued foreground query traffic.
	BackpressureWaits int

	Enqueued time.Time
	// Elapsed is the active sweep time so far: chunk execution only,
	// backpressure waits excluded (final once Terminal).
	Elapsed time.Duration
	// ETA estimates the remaining sweep time from the per-chunk pace; zero
	// until the first chunk completes and once the job is terminal.
	ETA time.Duration
	// LastChunkDuration is how long the most recent chunk took; zero before
	// the first chunk completes. Compared against TargetChunkTime — the
	// adaptive controller's per-chunk latency target — it shows whether the
	// controller is currently growing or shrinking ChunkRows.
	LastChunkDuration time.Duration
	TargetChunkTime   time.Duration

	// Err describes the failure of a Failed job.
	Err string
}

// Instruments are the scheduler's optional metrics hooks. The zero value
// disables instrumentation (every field is a nil instrument, and nil
// instruments no-op).
type Instruments struct {
	// Chunks counts executed chunks; RowsSwept accumulates the rows they
	// covered (rows/sec is their ratio over the scrape interval).
	Chunks    *metrics.Counter
	RowsSwept *metrics.Counter
	// Yields counts chunk boundaries at which the runner waited out writer
	// backpressure before proceeding.
	Yields *metrics.Counter
	// ChunkSec observes per-chunk RunChunk latency in seconds.
	ChunkSec *metrics.Histogram
}

// Options configure a Scheduler.
type Options struct {
	// Backpressure, when non-nil, reports that foreground traffic is waiting
	// on the writer; the runner waits between chunks while it returns true.
	Backpressure func() bool
	// PollInterval is the backpressure re-check cadence (default 200µs).
	PollInterval time.Duration

	// ChunkAlign rounds chunk sizes down to a multiple of this many rows
	// (default 512), keeping sweep chunks aligned with the copy-on-write
	// storage segments so a chunk's clones never straddle an extra segment.
	ChunkAlign int
	// InitChunkRows seeds each job's adaptive chunk size (default
	// 8*ChunkAlign). MinChunkRows/MaxChunkRows clamp it (defaults ChunkAlign
	// and 128*ChunkAlign).
	InitChunkRows int
	MinChunkRows  int
	MaxChunkRows  int
	// TargetChunkTime is the per-chunk latency the adaptive sizing steers
	// toward (default 5ms): chunks that finish faster grow (at most 2x per
	// step), slower ones shrink, and a backpressure yield halves the next
	// chunk so foreground queries get boundaries to slot into sooner.
	TargetChunkTime time.Duration

	// Instr, when set, feeds the session's metrics registry.
	Instr Instruments
}

// clampChunkRows clamps n to the configured bounds and aligns it down to a
// ChunkAlign multiple.
func (o Options) clampChunkRows(n int) int {
	if n > o.MaxChunkRows {
		n = o.MaxChunkRows
	}
	n -= n % o.ChunkAlign
	if n < o.MinChunkRows {
		n = o.MinChunkRows
	}
	return n
}

// nextChunkRows adapts the chunk size from the last chunk's observed
// latency and backpressure: a backpressure yield halves the size; otherwise
// the size scales toward TargetChunkTime, growing or shrinking by at most 2x
// per step. A full chunk that observed zero latency (a coarse monotonic
// clock can resolve a fast chunk to 0ns) is by definition far under
// TargetChunkTime, so it takes the maximum growth step — treating it as
// no-signal would freeze the size at its seed forever on fast machines.
// Short final chunks (ran < cur) genuinely carry no signal and keep the
// current size.
func (o Options) nextChunkRows(cur, ran int, took time.Duration, backpressured bool) int {
	next := cur
	switch {
	case backpressured:
		next = cur / 2
	case ran == cur && took <= 0:
		next = 2 * cur
	case ran == cur:
		scaled := int(float64(cur) * float64(o.TargetChunkTime) / float64(took))
		if scaled > 2*cur {
			scaled = 2 * cur
		}
		if scaled < cur/2 {
			scaled = cur / 2
		}
		next = scaled
	}
	return o.clampChunkRows(next)
}

type job struct {
	id    int64
	table string
	rule  string
	body  Job

	state      State
	rowsDone   int
	rowsTotal  int
	chunkRows  int // current adaptive chunk size
	chunksDone int
	groups     int
	cells      int
	bpWaits    int

	enqueued time.Time
	// elapsed accumulates per-chunk RunChunk time only — backpressure waits
	// are excluded, so ETA extrapolates sweep pace, not wall time spent
	// parked.
	elapsed time.Duration
	// lastChunk is the duration of the most recent chunk — the controller's
	// latest input signal, surfaced in Status.
	lastChunk time.Duration

	canceled bool // cancel requested; honored at the next chunk boundary
	err      error
}

func jobKey(table, rule string) string { return table + "\x00" + rule }

// Scheduler runs background cleaning jobs on a single runner goroutine,
// started lazily on first Enqueue. All methods are safe for concurrent use.
type Scheduler struct {
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc

	mu   sync.Mutex
	cond *sync.Cond
	// queue is FIFO; active dedups live jobs per (table, rule); jobs keeps
	// the full history in enqueue order for Status.
	queue  []*job
	active map[string]*job
	jobs   []*job
	nextID int64

	closed     bool
	runnerUp   bool
	runnerDone chan struct{}
}

// New creates a scheduler. The runner goroutine starts on first Enqueue.
func New(opts Options) *Scheduler {
	if opts.PollInterval <= 0 {
		opts.PollInterval = 200 * time.Microsecond
	}
	if opts.ChunkAlign <= 0 {
		opts.ChunkAlign = 512
	}
	if opts.MinChunkRows <= 0 {
		opts.MinChunkRows = opts.ChunkAlign
	}
	if opts.MaxChunkRows <= 0 {
		opts.MaxChunkRows = 128 * opts.ChunkAlign
	}
	if opts.MaxChunkRows < opts.MinChunkRows {
		opts.MaxChunkRows = opts.MinChunkRows
	}
	if opts.InitChunkRows <= 0 {
		opts.InitChunkRows = 8 * opts.ChunkAlign
	}
	opts.InitChunkRows = opts.clampChunkRows(opts.InitChunkRows)
	if opts.TargetChunkTime <= 0 {
		opts.TargetChunkTime = 5 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		opts: opts, ctx: ctx, cancel: cancel,
		active: make(map[string]*job), runnerDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Enqueue registers a sweep for (table, rule). At most one live job exists
// per key: an enqueue while one is live is deduped — its id is returned with
// fresh=false and the new body dropped (the live sweep covers the same
// groups). A closed scheduler rejects jobs with id 0.
func (s *Scheduler) Enqueue(table, rule string, body Job) (id int64, fresh bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, false
	}
	if cur, ok := s.active[jobKey(table, rule)]; ok {
		return cur.id, false
	}
	s.nextID++
	j := &job{
		id: s.nextID, table: table, rule: rule, body: body,
		state: Pending, rowsTotal: body.Total(),
		chunkRows: s.opts.InitChunkRows, enqueued: time.Now(),
	}
	s.active[jobKey(table, rule)] = j
	s.jobs = append(s.jobs, j)
	s.queue = append(s.queue, j)
	if !s.runnerUp {
		s.runnerUp = true
		go s.run()
	}
	s.cond.Broadcast()
	return j.id, true
}

// Status snapshots every job ever enqueued, in enqueue order.
func (s *Scheduler) Status() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, len(s.jobs))
	for i, j := range s.jobs {
		out[i] = s.statusLocked(j)
	}
	return out
}

func (s *Scheduler) statusLocked(j *job) Status {
	st := Status{
		ID: j.id, Table: j.table, Rule: j.rule, State: j.state,
		RowsDone: j.rowsDone, RowsTotal: j.rowsTotal,
		ChunksDone: j.chunksDone, ChunkRows: j.chunkRows,
		GroupsCleaned: j.groups, CellsUpdated: j.cells,
		BackpressureWaits: j.bpWaits, Enqueued: j.enqueued, Elapsed: j.elapsed,
		LastChunkDuration: j.lastChunk, TargetChunkTime: s.opts.TargetChunkTime,
	}
	// j.elapsed can be 0 with chunks done (coarse clock, same pathology
	// nextChunkRows guards): no pace signal exists yet, so leave ETA at its
	// documented "unknown" zero instead of extrapolating from a 0 rate.
	if !j.state.Terminal() && j.rowsDone > 0 && j.rowsDone < j.rowsTotal && j.elapsed > 0 {
		perRow := j.elapsed / time.Duration(j.rowsDone)
		st.ETA = perRow * time.Duration(j.rowsTotal-j.rowsDone)
	}
	if j.err != nil {
		st.Err = j.err.Error()
	}
	return st
}

// Cancel requests cancellation of the live job for (table, rule); the sweep
// stops at its next chunk boundary, leaving the valid resumable state
// described in the package comment. It reports whether a live job was found.
func (s *Scheduler) Cancel(table, rule string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.active[jobKey(table, rule)]
	if !ok {
		return false
	}
	j.canceled = true
	s.cond.Broadcast()
	return true
}

// Wait blocks until no job is pending or running (the scheduler has
// quiesced) or ctx is done.
func (s *Scheduler) Wait(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.active) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.cond.Wait()
	}
	return nil
}

// Close cancels every live job cooperatively and waits for the runner to
// stop. Idempotent; a chunk in flight completes (and publishes) first.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	up := s.runnerUp
	s.cancel()
	s.cond.Broadcast()
	s.mu.Unlock()
	if up {
		<-s.runnerDone
	}
}

// run is the single runner goroutine: pop, sweep, repeat. After Close it
// drains the queue, canceling whatever it pops.
func (s *Scheduler) run() {
	defer close(s.runnerDone)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		s.runJob(j)
	}
}

func (s *Scheduler) runJob(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The `!done` loop always runs at least one chunk, so an empty relation
	// still gets its (0, 0) call and the job's terminal bookkeeping fires.
	for done := false; !done; {
		bpBefore := j.bpWaits
		if !s.gateLocked(j) {
			s.finishLocked(j, Canceled, nil)
			return
		}
		j.state = Running
		lo := j.rowsDone
		hi := lo + j.chunkRows
		if hi > j.rowsTotal {
			hi = j.rowsTotal
		}
		s.mu.Unlock()
		t0 := time.Now()
		res, err := j.body.RunChunk(s.ctx, lo, hi)
		took := time.Since(t0)
		s.opts.Instr.Chunks.Inc()
		s.opts.Instr.RowsSwept.Add(int64(hi - lo))
		s.opts.Instr.ChunkSec.ObserveDuration(took)
		s.mu.Lock()
		j.elapsed += took
		j.lastChunk = took
		if err != nil {
			if errors.Is(err, context.Canceled) {
				s.finishLocked(j, Canceled, nil)
			} else {
				s.finishLocked(j, Failed, err)
			}
			return
		}
		j.rowsDone = hi
		j.chunksDone++
		j.groups += res.Groups
		j.cells += res.Cells
		j.chunkRows = s.opts.nextChunkRows(j.chunkRows, hi-lo, took, j.bpWaits > bpBefore)
		s.cond.Broadcast() // progress for Status/Wait pollers
		done = j.rowsDone >= j.rowsTotal
	}
	s.finishLocked(j, Done, nil)
}

// gateLocked blocks (releasing the lock) while the writer reports
// backpressure. It returns false when the job must stop.
func (s *Scheduler) gateLocked(j *job) bool {
	for {
		if s.closed || j.canceled {
			return false
		}
		bp := s.opts.Backpressure
		if bp == nil {
			return true
		}
		s.mu.Unlock()
		waited := false
		for bp() && s.ctx.Err() == nil {
			waited = true
			time.Sleep(s.opts.PollInterval)
		}
		s.mu.Lock()
		if waited {
			j.bpWaits++
			s.opts.Instr.Yields.Inc()
			continue // re-check cancel after the wait
		}
		return true
	}
}

// finishLocked moves a job to a terminal state and releases its body so the
// scheduler no longer pins the session (an abandoned Session can then be
// finalized even while the runner goroutine stays parked).
func (s *Scheduler) finishLocked(j *job, st State, err error) {
	j.state = st
	j.err = err
	j.body = nil
	delete(s.active, jobKey(j.table, j.rule))
	s.cond.Broadcast()
}
