// Package daisy is the public API of the Daisy reproduction: query-driven
// cleaning of denial constraint violations through query-result relaxation
// (Giannakopoulou, Karpathiotakis, Ailamaki — SIGMOD 2020).
//
// A Session holds dirty relations and denial constraints. Queries execute
// with cleaning operators weaved into the plan: each query result is relaxed
// with its correlated tuples, violations inside the relaxed result are
// repaired with probabilistic candidate fixes, and the fixes are written
// back — so the dataset becomes gradually cleaner as exploration proceeds.
//
//	s := daisy.New(daisy.Options{})
//	s.Register(cities)                               // a dirty *daisy.Table
//	s.AddRule(daisy.MustRule("phi: !(t1.zip=t2.zip & t1.city!=t2.city)"))
//	res, err := s.Query("SELECT zip, city FROM cities WHERE city = 'Los Angeles'")
//
// Result cells carry candidate values with frequency-based probabilities and
// provenance to the original data; rules added later merge into the existing
// probabilistic state without restarting.
//
// QueryContext is the primary query entry point: it takes a
// context.Context for cooperative cancellation, per-query options, and
// returns a streaming Rows cursor that enumerates cleaned tuples from the
// query's snapshot without materializing the whole result:
//
//	rows, err := s.QueryContext(ctx, "SELECT zip, city FROM cities",
//		daisy.WithTimeout(2*time.Second))
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		t := rows.Row() // *daisy.Tuple, probabilistic cells; valid until the next Next
//	}
//	if err := rows.Err(); err != nil { ... }
//
// A projected row is one reused tuple filled from the result's column map,
// so a caller that keeps a row past Next copies it; Result materializes the
// whole answer.
//
// Cancellation is threaded through the whole execution path — plan
// operators, theta-join workers, the relaxation/repair loop — so a
// deadline or client disconnect aborts mid-clean with an error wrapping
// ctx.Err(). A canceled query publishes nothing: its private copy-on-write
// overlay is dropped and the session's published epochs are untouched.
// Errors are typed: ErrSessionClosed, ErrUnknownTable (errors.Is),
// *ParseError with the byte offset of the offending token (errors.As), and
// wrapped context.Canceled / context.DeadlineExceeded.
//
// Query remains as a thin materializing wrapper over QueryContext with a
// background context — existing callers keep working unchanged; prefer
// QueryContext for anything serving traffic. Per-query options
// (WithStrategy, WithWorkers, WithoutCleaning, WithExplain, WithTimeout,
// WithTrace) override the session Options for one call.
//
// Queries are safe for any number of concurrent callers: each executes
// against an immutable snapshot epoch of the session state, repairs route
// through a single-writer apply loop, and the converged cleaned state is
// independent of query interleaving. Options.Workers bounds intra-query
// parallelism and Session.Close (idempotent) releases the apply goroutine;
// bounding how many queries run at once is the serving layer's job (see
// Server). See internal/core for the full concurrency model.
package daisy

import (
	"io"
	"time"

	"daisy/internal/core"
	"daisy/internal/dc"
	"daisy/internal/metrics"
	"daisy/internal/ptable"
	"daisy/internal/schema"
	"daisy/internal/server"
	"daisy/internal/sql"
	"daisy/internal/table"
	"daisy/internal/trace"
	"daisy/internal/uncertain"
	"daisy/internal/value"
	"daisy/internal/vfs"
)

// Session is a query-driven cleaning session. See core.Session for the full
// method set: Register, AddRule, Query, QueryContext, Table, Close.
type Session = core.Session

// Options configure a Session.
type Options = core.Options

// Strategy selects the cleaning schedule.
type Strategy = core.Strategy

// Strategies: Auto lets the §5.2.3 cost model pick per query.
const (
	StrategyAuto        = core.StrategyAuto
	StrategyIncremental = core.StrategyIncremental
	StrategyFull        = core.StrategyFull
)

// Result is a cleaned query answer with the per-rule cleaning decisions.
type Result = core.Result

// CleaningJob is one background sweep's status, as reported by
// Session.CleaningStatus. When the §5.2.3 cost inequality flips under
// StrategyAuto, the triggering query cleans only its own scope (its
// Decisions report strategy "background") and the remaining dirty part is
// swept chunk by chunk in the background, one published epoch per chunk,
// with chunk sizes adapting to observed latency and halving after a yield to
// queued queries. The status carries row and chunk progress, repaired-group
// and cell counts, elapsed time and an ETA. Session.WaitCleaning blocks
// until every sweep is terminal; when all are Done the state is
// byte-identical to having run the full cleans synchronously.
// CancelCleaning stops a sweep at its next chunk boundary, and
// CleanInBackground starts one (a canceled sweep resumes from the checked
// sets, and a durable session's Open resumes every sweep whose latest run
// did not finish); Options.DisableBackgroundClean restores the inline
// switch.
type CleaningJob = core.CleaningJob

// CleaningState is a background sweep's lifecycle state.
type CleaningState = core.CleaningState

// Background sweep states.
const (
	CleaningPending  = core.CleaningPending
	CleaningRunning  = core.CleaningRunning
	CleaningDone     = core.CleaningDone
	CleaningCanceled = core.CleaningCanceled
)

// Rows is a streaming cursor over a cleaned query result: Next/Row/Err/Close
// plus a Go 1.23 All() iterator. Returned by Session.QueryContext. A row is
// valid until the next Next.
type Rows = core.Rows

// Tuple is one result row: its position in the result (ID) and its
// probabilistic cells, each keeping its original value as provenance.
type Tuple = ptable.Tuple

// QueryOption overrides one session option for a single QueryContext call.
type QueryOption = core.QueryOption

// ParseError is a query syntax error with the byte offset of the offending
// token; recover it with errors.As.
type ParseError = sql.ParseError

// Typed query errors; test with errors.Is. Canceled and timed-out queries
// return errors wrapping context.Canceled / context.DeadlineExceeded.
var (
	// ErrSessionClosed reports a query on a closed session.
	ErrSessionClosed = core.ErrSessionClosed
	// ErrUnknownTable reports a query referencing an unregistered table.
	ErrUnknownTable = core.ErrUnknownTable
)

// WithStrategy forces the cleaning strategy for one query.
func WithStrategy(st Strategy) QueryOption { return core.WithStrategy(st) }

// WithWorkers bounds one query's intra-query parallelism (results are
// identical for any setting).
func WithWorkers(n int) QueryOption { return core.WithWorkers(n) }

// WithoutCleaning executes one query over the dirty data unchanged.
func WithoutCleaning() QueryOption { return core.WithoutCleaning() }

// WithExplain plans the query without executing it; the returned Rows carry
// only the plan string.
func WithExplain() QueryOption { return core.WithExplain() }

// WithTimeout gives one query a deadline; on expiry it aborts mid-clean with
// an error wrapping context.DeadlineExceeded and publishes nothing.
func WithTimeout(d time.Duration) QueryOption { return core.WithTimeout(d) }

// WithTrace records a span tree for one query — parse, plan, every plan
// operator with row counts, violation detection with segments-skipped
// counts, the §5.2.3 strategy decision with the cost inequality's operands,
// repair, and publish (including WAL append/fsync timing from the writer
// goroutine). Read it with Rows.Trace after the query
// returns; untraced queries pay nothing. Options.TraceSampleRate traces a
// random fraction of queries instead.
func WithTrace() QueryOption { return core.WithTrace() }

// Trace is a completed query's recorded span collection; Tree renders it as a
// nested TraceNode, Render as indented text (EXPLAIN ANALYZE-style), JSON as
// a serializable tree. Obtained from Rows.Trace on queries run with
// WithTrace.
type Trace = trace.Trace

// TraceNode is one span in a rendered trace tree: name, start offset,
// duration, typed attributes, and children.
type TraceNode = trace.Node

// Table is an in-memory deterministic relation.
type Table = table.Table

// Row is one tuple of a Table.
type Row = table.Row

// PTable is a probabilistic relation (the gradually cleaned dataset state).
type PTable = ptable.PTable

// Cell is a probabilistic attribute value with candidates and provenance.
type Cell = uncertain.Cell

// Schema describes a relation's columns.
type Schema = schema.Schema

// Column is one schema attribute.
type Column = schema.Column

// Value is a typed scalar.
type Value = value.Value

// Rule is a denial constraint ∀t1,t2 ¬(p1 ∧ ... ∧ pm).
type Rule = dc.Constraint

// SyncMode selects how eagerly a durable session's write-ahead log reaches
// stable storage.
type SyncMode = core.SyncMode

// Sync modes: SyncOS (default) leaves WAL records in the OS page cache —
// state survives a process crash but the un-checkpointed tail may be lost on
// power failure; SyncAlways fsyncs every record.
const (
	SyncOS     = core.SyncOS
	SyncAlways = core.SyncAlways
)

// DurabilityState is a durable session's logging health, as reported by
// Session.DurabilityState: healthy → retrying (bounded in-place retries with
// backoff, off the query path) → degraded (log detached; the session keeps
// serving from memory while the directory holds the last consistent prefix)
// → reattached (a later full checkpoint succeeded, logging resumed on a
// fresh WAL). In-memory sessions report DurabilityMemory.
type DurabilityState = core.DurabilityState

// Durability states, in escalation order.
const (
	DurabilityMemory     = core.DurabilityMemory
	DurabilityHealthy    = core.DurabilityHealthy
	DurabilityRetrying   = core.DurabilityRetrying
	DurabilityDegraded   = core.DurabilityDegraded
	DurabilityReattached = core.DurabilityReattached
)

// DurabilityPolicy selects what a degraded session's owner wants mutating
// work to do: FailOpen (default) keeps serving from memory; FailClosed lets
// the serving layer reject mutating requests with 503 + Retry-After until
// the log re-attaches. See Options.Policy and ServerConfig.PolicyFor.
type DurabilityPolicy = core.DurabilityPolicy

// Durability policies.
const (
	FailOpen   = core.FailOpen
	FailClosed = core.FailClosed
)

// FS is the filesystem seam durable sessions run on (Options.FS; nil means
// the real filesystem). The vfs package provides OS and a fault-injecting
// wrapper used by the chaos suite.
type FS = vfs.FS

// MetricSnapshot is one instrument's point-in-time state, as returned by
// Session.MetricsSnapshot: counters and gauges carry Value, histograms carry
// Count/Sum and interpolated P50/P95/P99.
type MetricSnapshot = metrics.Snapshot

// MetricsRegistry is a session's instrument registry — every counter, gauge,
// and latency histogram Daisy publishes (writer apply loop, WAL, background
// cleaning, query path). Render it with WriteJSON or WritePrometheus, or
// scrape it through the serving layer's /metrics endpoint.
type MetricsRegistry = metrics.Registry

// Server is the HTTP front-end: per-tenant sessions behind bounded admission
// control, NDJSON query streaming, /metrics, and graceful drain. Mount
// Handler() on an http.Server; call Drain then Close on shutdown. The
// daisy-serve command is a thin main around this type.
type Server = server.Server

// ServerConfig tunes a Server: tenant root directory (durable sessions),
// session option template, admission bounds (MaxInflight, MaxQueue,
// QueueTimeout), body limits, and idle eviction.
type ServerConfig = server.Config

// NewServer builds the HTTP serving layer. It performs no I/O: tenant
// sessions open lazily on first request.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// New creates a cleaning session.
func New(opts Options) *Session { return core.NewSession(opts) }

// Open creates a session backed by the durable directory opts.Dir: every
// apply batch journals one O(delta) record to a write-ahead log, full-state
// checkpoints publish in the background, and reopening the same directory
// recovers the cleaned state, checked-set bookkeeping, and unfinished
// background sweeps (which resume where they left off). With an empty Dir it
// is New with an error return. See Options.Dir, Options.Sync, and
// Options.CheckpointBytes.
func Open(opts Options) (*Session, error) { return core.Open(opts) }

// NewTable creates an empty relation with the given columns.
func NewTable(name string, cols ...Column) (*Table, error) {
	s, err := schema.New(cols...)
	if err != nil {
		return nil, err
	}
	return table.New(name, s), nil
}

// ReadCSV loads a relation from CSV (header row required; kinds inferred).
func ReadCSV(name string, r io.Reader) (*Table, error) {
	return table.ReadCSV(name, r, nil)
}

// ReadCSVFile loads a relation from a CSV file.
func ReadCSVFile(name, path string) (*Table, error) {
	return table.ReadCSVFile(name, path, nil)
}

// ParseRule reads a denial constraint from text, e.g.
// "phi@cities: !(t1.zip=t2.zip & t1.city!=t2.city)".
func ParseRule(text string) (*Rule, error) { return dc.Parse(text) }

// MustRule is ParseRule that panics on error, for rule literals.
func MustRule(text string) *Rule { return dc.MustParse(text) }

// FD builds the functional dependency lhs...→rhs bound to a table.
func FD(name, tableName, rhs string, lhs ...string) *Rule {
	return dc.FD(name, tableName, rhs, lhs...)
}

// Int, Float, Str build typed values for rows.
func Int(v int64) Value { return value.NewInt(v) }

// Float builds a float value.
func Float(v float64) Value { return value.NewFloat(v) }

// Str builds a string value.
func Str(v string) Value { return value.NewString(v) }
