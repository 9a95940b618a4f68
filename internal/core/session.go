// Package core implements Daisy: the query-driven cleaning engine of the
// paper. A Session holds the gradually-cleaned probabilistic state of every
// registered relation, plans queries with cleaning operators weaved in
// (package plan), executes them (package engine), and implements the
// cleaning callback: relax the query result and detect and repair FD
// violations through the relation's FD group index, detect and repair
// general-DC violations (packages thetajoin/repair), apply the delta, and
// remember what has been checked so no work repeats. Per query, the cost
// model (package cost) decides between incremental cleaning and switching to
// a full clean of the remaining dirty part (§5.2.3), and Algorithm 2's
// accuracy estimate drives the same decision for general DCs.
//
// # Concurrency model
//
// Session.Query is safe for any number of concurrent callers. Each query
// atomically loads the current epoch — an immutable snapshot of every
// relation's probabilistic state, checked sets, and cost model — and plans,
// executes, and relaxes against it without locks. What is derived from
// original values (FD group indexes, DC rank indexes and their estimates)
// lives on the relation's registration instead: built once, on first use,
// and shared read-only by every epoch, since cleaning never rewrites
// originals. Repair write-backs never mutate the snapshot: the query applies
// its delta copy-on-write to a private overlay (so its own result reflects
// its fixes) and routes the delta through a single-writer apply goroutine,
// which batches pending deltas, merges them into the canonical state, bumps
// the epoch, and publishes the new snapshot with one atomic store. Duplicate
// fixes from racing queries coalesce idempotently: FD fixes are
// group-deterministic functions of the original values, so the writer drops
// a delta whose group is already checked — the racing winner applied the
// identical fix. General-DC fixes need no such filter: a cell's range fixes
// merge as a set union, so a pair that two racing queries both detect leaves
// the same state as a pair detected once. The converged cleaned state is
// therefore a function of the checked groups and tuples, independent of
// query interleaving and strategy.
package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"daisy/internal/dc"
	"daisy/internal/detect"
	"daisy/internal/engine"
	"daisy/internal/plan"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/sql"
	"daisy/internal/table"
	"daisy/internal/trace"
	"daisy/internal/vfs"
	"daisy/internal/wal"
)

// SyncMode selects how eagerly a durable session's write-ahead log reaches
// stable storage; see the constants on package wal.
type SyncMode = wal.SyncMode

// Sync modes: SyncOS (default) leaves records in the OS page cache — state
// survives a process crash but the tail since the last checkpoint may be
// lost on power failure; SyncAlways fsyncs every record.
const (
	SyncOS     = wal.SyncOS
	SyncAlways = wal.SyncAlways
)

// Strategy selects how cleaning work is scheduled.
type Strategy int

// Strategies: Auto consults the cost model; Incremental and Full force one
// side (the paper's "Daisy w/o cost" and "Full Cleaning" lines).
const (
	StrategyAuto Strategy = iota
	StrategyIncremental
	StrategyFull
)

// strategyName renders a resolved strategy for decisions and trace attrs.
func strategyName(s Strategy) string {
	switch s {
	case StrategyIncremental:
		return "incremental"
	case StrategyFull:
		return "full"
	default:
		return "auto"
	}
}

// Options configure a Session. All defaults resolve once in NewSession; the
// zero value of every field selects the documented default.
type Options struct {
	// Workers bounds the worker pools of the parallel operators (theta-join
	// detection, partitioned filter, parallel hash-join build/probe).
	// 0 resolves to runtime.GOMAXPROCS(0) once at NewSession; 1 forces
	// sequential execution. Results are identical for any setting — parallel
	// operators merge deterministically.
	Workers int
	// DCThreshold is Algorithm 2's dirtiness threshold above which a general
	// DC triggers a full clean (default 0.10).
	DCThreshold float64
	// Strategy forces incremental or full cleaning; Auto uses the cost model.
	Strategy Strategy
	// DisableCleaning executes queries over the dirty data unchanged.
	DisableCleaning bool
	// DisableStatsPruning turns off the precomputed dirty-group check (the
	// Fig 9 optimization) — ablation knob: every result row then pays
	// detection work even when its group is clean.
	DisableStatsPruning bool
	// DisableBackgroundClean forces the pre-async behavior of the §5.2.3
	// strategy switch: the triggering query runs the full clean inline
	// instead of enqueueing a background sweep. The paper-faithful ablation
	// knob (the experiments use it to measure the inline switch), and the
	// synchronous reference the background convergence tests compare
	// against.
	DisableBackgroundClean bool
	// Dir, when set, makes the session durable: every apply batch appends
	// one record of its decisions (checked groups and tuples, cost charge)
	// to a write-ahead log in Dir, checkpoints publish in the background,
	// and Open(Options{Dir: ...}) recovers the cleaned state, checked-set
	// bookkeeping, and in-flight sweep progress after a crash. Empty
	// (default) keeps the session purely in memory.
	Dir string
	// Sync selects the WAL sync mode of a durable session (default SyncOS).
	Sync SyncMode
	// CheckpointBytes triggers an automatic background checkpoint once the
	// WAL tail since the previous checkpoint exceeds this many bytes
	// (default 4MB). Negative disables automatic checkpointing (explicit
	// Checkpoint calls still work) — which also disables the automatic
	// re-attach cycle of a degraded session.
	CheckpointBytes int64
	// Policy declares how callers should treat the session while its
	// durability is degraded. The engine itself always degrades and
	// continues in memory (queries never fail on a storage fault); the
	// serving layer reads this policy to decide whether to keep accepting
	// mutating requests (FailOpen, default) or reject them with 503 +
	// Retry-After until the session re-attaches (FailClosed).
	Policy DurabilityPolicy
	// WALRetries bounds how many times a failed WAL append or fsync is
	// retried (with exponential backoff, off the query path) before the
	// session degrades. Default 4; negative disables retries so the first
	// failure degrades immediately.
	WALRetries int
	// WALRetryBackoff is the backoff before the first retry attempt,
	// doubling per attempt (default 5ms).
	WALRetryBackoff time.Duration
	// ReattachInterval paces the degraded session's background
	// checkpoint-and-reattach cycle (default 1s). Only meaningful when
	// automatic checkpointing is enabled.
	ReattachInterval time.Duration
	// FS overrides the filesystem under the WAL and checkpoint files
	// (default: the real one). Fault-injection tests pass a vfs.FaultFS to
	// exercise the durability state machine deterministically.
	FS vfs.FS
	// TraceSampleRate traces this fraction of queries (0..1) even without
	// WithTrace, so always-on production tracing stays cheap: sampled-out
	// queries pay nothing, sampled-in queries record an operator-granular
	// span tree retrievable from Rows.Trace (the serving layer feeds it to
	// the slow-query log). 0 (default) samples nothing; >= 1 traces every
	// query.
	TraceSampleRate float64
}

// defaults resolves every option exactly once (NewSession); call sites read
// the resolved values and never re-derive them.
func (o *Options) defaults() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.DCThreshold <= 0 {
		o.DCThreshold = 0.10
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 4 << 20
	}
	if o.WALRetries == 0 {
		o.WALRetries = 4
	}
	if o.WALRetries < 0 {
		o.WALRetries = 0
	}
	if o.WALRetryBackoff <= 0 {
		o.WALRetryBackoff = 5 * time.Millisecond
	}
	if o.ReattachInterval <= 0 {
		o.ReattachInterval = time.Second
	}
	if o.FS == nil {
		o.FS = vfs.OS{}
	}
}

// Decision records one cleaning decision taken during a query. Strategy
// "background" means the §5.2.3 inequality flipped and the query scheduled
// (or joined) a background full-clean sweep, cleaning only its own scope
// inline; track the sweep through Session.CleaningStatus.
type Decision struct {
	Table    string
	Rule     string
	Strategy string  // "incremental", "full", "background", "skip"
	Accuracy float64 // 1 − estimated dirtiness (DC rules only)
	Support  float64 // diagonal coverage (DC rules only)

	// Cost-inequality operands (§5.2.3), populated when StrategyAuto
	// consulted the FD cost model: the projections the inequality was
	// evaluated with (Qi result rows, Ei estimated relaxation extras, Epsi
	// dirty scope) and the actual operand values compared — the projected
	// next-query incremental cost, the cumulative incremental spend so far,
	// and the offline-pass cost the sum is measured against.
	Qi, Ei, Epsi                          int
	CostNext, CostCumulative, CostOffline float64
}

// Result is a cleaned query answer.
type Result struct {
	Rows      *ptable.PTable
	Plan      string
	Decisions []Decision
	Metrics   detect.Metrics
}

// Session is a query-driven cleaning session over one or more dirty tables.
// Query/QueryContext are safe for concurrent use; Register and AddRule may
// run at any time but queries already in flight keep their epoch and do not
// see the change. A registered table stays installed for the life of the
// session.
type Session struct {
	opts  Options
	w     *writer
	bg    *sweeper      // background full cleans (§5.2.3 gone async)
	ckpt  *checkpointer // durable sessions only (nil: in-memory)
	instr *sessionInstr // metrics registry + instruments (never nil)

	// Metrics accumulates work across all queries. Reads are only meaningful
	// once in-flight queries have returned; per-query numbers are on Result.
	Metrics   detect.Metrics
	metricsMu sync.Mutex
}

// NewSession creates an empty session. With Options.Dir set it behaves as
// Open — recovering any existing durable state — and panics on a recovery
// error; services that need to handle that error call Open directly.
func NewSession(opts Options) *Session {
	if opts.Dir != "" {
		s, err := Open(opts)
		if err != nil {
			panic(fmt.Sprintf("core: open durable session %q: %v", opts.Dir, err))
		}
		return s
	}
	s := newMemSession(opts)
	s.arm()
	return s
}

// Open creates a session backed by the durable directory opts.Dir (created
// if needed): it loads the latest checkpoint, replays the write-ahead log
// since it, re-enqueues unfinished background sweeps (which resume from the
// recovered checked-set bookkeeping rather than restarting), and then
// attaches the log so new work is journaled. With an empty Dir it is
// NewSession with an error return.
func Open(opts Options) (*Session, error) {
	s := newMemSession(opts)
	if s.opts.Dir != "" {
		if err := s.recoverDurable(); err != nil {
			s.bg.close()
			s.w.close()
			return nil, err
		}
	}
	s.arm()
	return s, nil
}

// newMemSession builds the in-memory core every session starts from.
func newMemSession(opts Options) *Session {
	opts.defaults()
	instr := newSessionInstr()
	durCfg := durabilityConfig{attempts: opts.WALRetries, backoff: opts.WALRetryBackoff}
	w := newWriter(instr, durCfg)
	return &Session{opts: opts, w: w, bg: newSweeper(w, instr), instr: instr}
}

// arm installs the finalizer once the session is fully assembled (including
// the checkpointer of a durable session). The apply goroutine references
// only the writer, the sweep runner only the sweeper (which drops a
// sweep's Session reference as the sweep reaches a terminal state), and the
// checkpointer only the writer and sweeper, so an
// unreachable Session can be finalized even while all three goroutines are
// parked; Close is still the deterministic way to release them. The teardown
// order mirrors Close and is safe against a concurrent explicit Close:
// writer.close waits for the apply loop to drain before closing the log, and
// late closers block until the first finishes.
func (s *Session) arm() {
	w, bg, ck := s.w, s.bg, s.ckpt
	runtime.SetFinalizer(s, func(s *Session) {
		bg.close()
		if ck != nil {
			ck.stop()
		}
		w.close()
	})
}

// Close cancels background sweeps cooperatively (a sweep stops at its
// next chunk boundary, leaving a valid state), stops the checkpointer,
// drains and stops the apply goroutine, syncs and closes the write-ahead
// log, and marks the session closed: subsequent Query/QueryContext calls
// return ErrSessionClosed. Close is idempotent and safe to call concurrently
// with in-flight queries — a query admitted before Close still completes
// (its write-backs apply inline, in memory only: a write-back that loses the
// race with Close is not journaled); a finalizer covers sessions that are
// simply dropped. Close disarms that finalizer: it captures the writer and
// with it the last snapshot, so an armed finalizer would keep a closed,
// dropped session's tables alive for one more GC cycle.
func (s *Session) Close() {
	runtime.SetFinalizer(s, nil)
	s.bg.close()
	if s.ckpt != nil {
		s.ckpt.stop()
	}
	s.w.close()
}

// Checkpoint forces a full-state checkpoint of the current epoch now,
// rotating and pruning the write-ahead log behind it. A no-op for in-memory
// sessions.
func (s *Session) Checkpoint() error {
	if s.ckpt == nil {
		return nil
	}
	return s.ckpt.checkpoint()
}

// DurabilityError reports the failure that opened the current unhealthy
// durability period — the first append/fsync error while retrying or
// degraded, or the last checkpoint-cycle failure. It clears when the
// session recovers (a retry episode drains, or a checkpoint re-attaches the
// log): nil therefore means "durable right now", not "never faulted" —
// check DurabilityState for reattached if the history matters. Always nil
// for in-memory sessions.
func (s *Session) DurabilityError() error {
	if err := s.w.durabilityErr(); err != nil {
		return err
	}
	if s.ckpt != nil {
		return s.ckpt.errState()
	}
	return nil
}

// DurabilityState reports where the session sits in the durability state
// machine (see the DurabilityState constants); DurabilityMemory for
// in-memory sessions.
func (s *Session) DurabilityState() DurabilityState { return s.w.durabilityState() }

// DurabilityPolicy returns the session's configured degraded-mode policy.
func (s *Session) DurabilityPolicy() DurabilityPolicy { return s.opts.Policy }

// Register snapshots a dirty table into the session and binds every rule
// already added that applies to it, exactly as if the rules were added after
// it: cleaning does not depend on the order tables and rules arrive in.
func (s *Session) Register(t *table.Table) error {
	return s.install(t.Name, ptable.FromTable(t))
}

// install adds a relation for Register and WAL replay: pt under name as a
// fresh registration, bound to the added rules that apply to it (those the
// planner attaches: named for it, or unnamed with all their columns
// present). It journals a register record when a log is attached; replay
// runs with none attached.
func (s *Session) install(name string, pt *ptable.PTable) error {
	return s.w.mutateLogged(
		func() []byte { return encodeRegisterRecord(name, pt) },
		func(next *snapshot, _ map[string]bool) error {
			if _, dup := next.tables[name]; dup {
				return fmt.Errorf("core: table %q already registered", name)
			}
			st := newTableState(pt)
			var rules []*dc.Constraint
			for _, r := range next.rules {
				if (r.Table == "" || r.Table == name) && hasColumns(pt.Schema, r) {
					rules = append(rules, r)
				}
			}
			if len(rules) > 0 {
				st.bind(rules...)
			}
			next.tables[name] = st
			return nil
		})
}

// AddRule binds a denial constraint to every registered table it applies to
// (see install for tables registered later), builds its FD group index
// (whose group-by sizes are the statistics of §5.2.3/§6) and seeds the cost
// model. Rules may be added after queries have run; provenance lets new
// rules merge into already-probabilistic data (Table 7). A rule's name keys
// its indexes and checked set, so it must be unique within the session.
func (s *Session) AddRule(rule *dc.Constraint) error {
	if rule.Name == "" {
		return fmt.Errorf("core: rule must be named")
	}
	return s.w.mutateLogged(
		func() []byte { return encodeRuleRecord(rule) },
		func(next *snapshot, cloned map[string]bool) error {
			if slices.ContainsFunc(next.rules, func(c *dc.Constraint) bool { return c.Name == rule.Name }) {
				return fmt.Errorf("core: rule %s already added", rule.Name)
			}
			bound := false
			for name, st := range next.tables {
				if rule.Table != "" && rule.Table != name {
					continue
				}
				if !hasColumns(st.pt.Schema, rule) {
					if rule.Table == name {
						return fmt.Errorf("core: rule %s references columns missing from %s", rule.Name, name)
					}
					continue
				}
				next.mutableTable(name, cloned).bind(rule)
				bound = true
			}
			if !bound {
				return fmt.Errorf("core: rule %s matches no registered table", rule.Name)
			}
			next.rules = append(append([]*dc.Constraint(nil), next.rules...), rule)
			return nil
		})
}

// Table exposes the current probabilistic state of a relation (the latest
// published epoch).
func (s *Session) Table(name string) *ptable.PTable {
	st, ok := s.w.current().tables[name]
	if !ok {
		return nil
	}
	return st.pt
}

// Rules returns the bound constraints.
func (s *Session) Rules() []*dc.Constraint { return s.w.current().rules }

// TableNames returns the registered relation names, sorted.
func (s *Session) TableNames() []string {
	tables := s.w.current().tables
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Epoch returns the current snapshot version — it advances by one per
// published apply batch. Diagnostics only.
func (s *Session) Epoch() uint64 { return s.w.current().epoch }

// Schema implements plan.Catalog against the latest epoch.
func (s *Session) Schema(name string) (*schema.Schema, bool) {
	st, ok := s.w.current().tables[name]
	if !ok {
		return nil, false
	}
	return st.pt.Schema, true
}

// Query parses, plans, and executes a statement, weaving cleaning operators
// into the plan, and materializes the full result. Safe for concurrent use.
// It is a thin wrapper over QueryContext with a background context.
func (s *Session) Query(text string) (*Result, error) {
	rows, err := s.QueryContext(context.Background(), text)
	if err != nil {
		return nil, err
	}
	return rows.Result(), nil
}

// QueryContext parses, plans, and executes a statement with cooperative
// cancellation and per-query options, returning a streaming Rows cursor over
// the cleaned result. Safe for concurrent use.
//
// ctx is polled throughout execution — plan operators, theta-join workers,
// the relaxation/repair loop — so a deadline or client disconnect
// aborts mid-clean with an error wrapping ctx.Err(). A canceled query
// publishes nothing: its private copy-on-write overlay is dropped and the
// session's published epochs are untouched, so subsequent queries (or a
// retry) see exactly the pre-query state.
//
// Errors are typed: ErrSessionClosed after Close, ErrUnknownTable for
// unregistered relations (errors.Is), *sql.ParseError with the byte offset
// of the offending token (errors.As), and wrapped context.Canceled /
// context.DeadlineExceeded for aborted queries.
func (s *Session) QueryContext(ctx context.Context, text string, opts ...QueryOption) (*Rows, error) {
	cfg := queryConfig{opts: s.opts}
	for _, o := range opts {
		o(&cfg)
	}
	// Record a span tree when asked (WithTrace) or sampled
	// (Options.TraceSampleRate); a nil trace is the zero-cost untraced query.
	var tr *trace.Trace
	if cfg.trace || (cfg.opts.TraceSampleRate > 0 && rand.Float64() < cfg.opts.TraceSampleRate) {
		tr = trace.New("query")
	}
	t0 := time.Now()
	q, err := sql.Parse(text)
	d := time.Since(t0)
	s.instr.parseSec.ObserveDuration(d)
	if tr != nil {
		tr.Root().Child("parse", t0, d, trace.Int("bytes", len(text)))
	}
	if err != nil {
		s.instr.queryErrors.Inc()
		return nil, err
	}
	if s.w.closed.Load() {
		return nil, ErrSessionClosed
	}
	root := tr.Root()
	cancel := context.CancelFunc(func() {})
	if cfg.timeout != 0 {
		// A non-positive timeout yields an already-expired context: the query
		// aborts at the first cooperative check.
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
	}
	// The query now counts in the inflight gauge for as long as it pins its
	// snapshot epoch and result buffers — which, for a streaming query, is
	// the lifetime of the returned Rows cursor, not of this call. release is
	// idempotent; ownership transfers to the Rows on success and the
	// deferred safety net covers every error return and panic unwind.
	s.instr.queries.Inc()
	s.instr.inflight.Add(1)
	var released atomic.Bool
	release := func() {
		if released.CompareAndSwap(false, true) {
			s.instr.inflight.Add(-1)
		}
	}
	handedOff := false
	defer func() {
		if !handedOff {
			release()
		}
	}()
	snap := s.w.current()
	qc := &queryCtx{s: s, snap: snap, ctx: ctx, opts: cfg.opts, span: root}
	t0 = time.Now()
	node, err := plan.Build(q, qc, snap.rules)
	planDur := time.Since(t0)
	s.instr.planSec.ObserveDuration(planDur)
	if root.Active() {
		root.Child("plan", t0, planDur)
	}
	if err != nil {
		cancel()
		s.instr.recordQueryError(err)
		return nil, err
	}
	if cfg.explain {
		cancel()
		handedOff = true
		if root.Active() {
			root.End(trace.Str("mode", "explain"))
		}
		return &Rows{plan: node.String(), release: release, trace: tr}, nil
	}
	ex := &engine.Executor{Tables: qc.ptables(), Workers: cfg.opts.Workers, Ctx: ctx}
	if !cfg.opts.DisableCleaning {
		ex.Cleaner = qc
	}
	execSp := root.Start("exec")
	ex.Span = execSp
	t0 = time.Now()
	fr, err := ex.Run(node)
	s.instr.execSec.ObserveDuration(time.Since(t0))
	if execSp.Active() {
		n := 0
		if fr != nil {
			n = len(fr.Rows)
		}
		execSp.End(trace.Int("rows_out", n))
	}
	if err == nil {
		// Last poll before committing: a cancellation that raced the final
		// operator must still abort without publishing.
		err = qc.ctxErr()
	}
	if err != nil {
		// The query's buffered write-backs and private overlay are dropped
		// with qc: the published epochs never saw this query.
		cancel()
		s.instr.recordQueryError(err)
		return nil, err
	}
	// Commit: publish the query's buffered write-backs through the
	// single-writer apply loop. From here on the query reports success even
	// if ctx fires — the repairs land atomically, never partially.
	qc.flush()
	s.metricsMu.Lock()
	s.Metrics.Add(ex.Metrics)
	s.metricsMu.Unlock()
	handedOff = true
	if root.Active() {
		root.End(trace.Int("rows", len(fr.Rows)))
	}
	rows := &Rows{
		fr: fr, pos: -1, ctx: ctx, cancel: cancel,
		plan: node.String(), decisions: qc.decisions, metrics: ex.Metrics,
		release: release, streamed: s.instr.rowsStreamed, trace: tr,
	}
	// An abandoned stream must not stay counted: a context canceled or timed
	// out mid-stream releases even if the caller never calls Close.
	rows.stop = context.AfterFunc(ctx, release)
	return rows, nil
}
