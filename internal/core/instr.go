package core

import (
	"context"
	"errors"

	"daisy/internal/metrics"
	"daisy/internal/wal"
)

// sessionInstr is the session's instrumentation: every counter, gauge, and
// histogram daisy publishes lives in one registry owned by the Session, so a
// serving layer can scrape a per-tenant registry without any global state.
// All instruments are wired unconditionally — an observation is one or two
// atomic adds, cheap enough for the apply loop and the per-row stream path.
type sessionInstr struct {
	reg *metrics.Registry

	// Query path.
	queries      *metrics.Counter
	queryErrors  *metrics.Counter
	queryCancels *metrics.Counter
	rowsStreamed *metrics.Counter
	inflight     *metrics.Gauge
	parseSec     *metrics.Histogram
	planSec      *metrics.Histogram
	execSec      *metrics.Histogram

	// Writer apply loop.
	applyBatches   *metrics.Counter
	applyRequests  *metrics.Counter
	applyCoalesced *metrics.Counter
	batchSize      *metrics.Histogram
	publishSec     *metrics.Histogram
	epoch          *metrics.Gauge

	// Durability state machine.
	walRetries    *metrics.Counter
	checkpoints   *metrics.Counter
	ckptFailures  *metrics.Counter
	pruneFailures *metrics.Counter
	durState      *metrics.Gauge

	// Background sweeps: chunks run and the rows they covered (rows/sec is
	// their ratio over a scrape interval), backpressure yields, chunk latency.
	sweepChunks   *metrics.Counter
	sweepRows     *metrics.Counter
	sweepYields   *metrics.Counter
	sweepChunkSec *metrics.Histogram
}

func newSessionInstr() *sessionInstr {
	reg := metrics.NewRegistry()
	return &sessionInstr{
		reg: reg,

		queries:      reg.Counter("daisy_queries_total", "queries accepted for execution"),
		queryErrors:  reg.Counter("daisy_query_errors_total", "queries that returned an error (incl. cancellations)"),
		queryCancels: reg.Counter("daisy_query_cancellations_total", "queries aborted by context cancellation or deadline"),
		rowsStreamed: reg.Counter("daisy_query_rows_streamed_total", "result rows enumerated through Rows cursors"),
		inflight:     reg.Gauge("daisy_queries_inflight", "queries currently executing or streaming"),
		parseSec:     reg.Histogram("daisy_query_parse_seconds", "SQL parse latency", metrics.LatencyBuckets),
		planSec:      reg.Histogram("daisy_query_plan_seconds", "plan build latency", metrics.LatencyBuckets),
		execSec:      reg.Histogram("daisy_query_exec_seconds", "execution latency (operators + cleaning)", metrics.LatencyBuckets),

		applyBatches:   reg.Counter("daisy_writer_apply_batches_total", "apply batches published by the single-writer loop"),
		applyRequests:  reg.Counter("daisy_writer_apply_requests_total", "write-back requests routed through the apply loop"),
		applyCoalesced: reg.Counter("daisy_writer_coalesced_requests_total", "write-backs dropped as duplicates of a racing query's identical fix"),
		batchSize:      reg.Histogram("daisy_writer_batch_size", "write-back requests coalesced per published batch", metrics.SizeBuckets),
		publishSec:     reg.Histogram("daisy_writer_publish_seconds", "apply-batch latency: derive, merge, journal, publish", metrics.LatencyBuckets),
		epoch:          reg.Gauge("daisy_epoch", "latest published snapshot epoch"),

		walRetries:    reg.Counter("daisy_wal_retries_total", "re-append attempts made by WAL retry episodes"),
		checkpoints:   reg.Counter("daisy_checkpoints_total", "full-state checkpoints written successfully"),
		ckptFailures:  reg.Counter("daisy_checkpoint_failures_total", "checkpoint or re-attach attempts that failed"),
		pruneFailures: reg.Counter("daisy_wal_prune_failures_total", "retired WAL/checkpoint files whose removal failed"),
		durState:      reg.Gauge("daisy_durability_state", "durability state (0 memory, 1 healthy, 2 retrying, 3 degraded, 4 reattached)"),

		sweepChunks:   reg.Counter("daisy_bgclean_chunks_total", "background sweep chunks executed (each published >= 1 epoch)"),
		sweepRows:     reg.Counter("daisy_bgclean_rows_swept_total", "rows covered by background sweep chunks"),
		sweepYields:   reg.Counter("daisy_bgclean_backpressure_yields_total", "chunk boundaries at which the sweep yielded to queued foreground traffic"),
		sweepChunkSec: reg.Histogram("daisy_bgclean_chunk_seconds", "background sweep per-chunk latency", metrics.LatencyBuckets),
	}
}

// walInstruments builds the write-ahead log's instrument set on the session
// registry.
func (in *sessionInstr) walInstruments() wal.Instruments {
	return wal.Instruments{
		Appends:       in.reg.Counter("daisy_wal_appends_total", "records appended to the write-ahead log"),
		AppendedBytes: in.reg.Counter("daisy_wal_appended_bytes_total", "framed bytes appended to the write-ahead log"),
		AppendErrors:  in.reg.Counter("daisy_wal_append_errors_total", "WAL appends that failed (write or fsync error)"),
		Rotations:     in.reg.Counter("daisy_wal_rotations_total", "log file rotations (one per checkpoint)"),
		SyncSec:       in.reg.Histogram("daisy_wal_fsync_seconds", "fsync latency on the log file", metrics.LatencyBuckets),
	}
}

// recordQueryError classifies a failed query for the error/cancellation
// counters.
func (in *sessionInstr) recordQueryError(err error) {
	in.queryErrors.Inc()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		in.queryCancels.Inc()
	}
}

// MetricsRegistry exposes the session's instrument registry — counters and
// gauges for the writer apply loop, WAL, background cleaning, and the query
// path, plus latency histograms with p50/p95/p99 estimates. The serving layer
// renders it at /metrics; embedders can render JSON or Prometheus text via
// the registry directly.
func (s *Session) MetricsRegistry() *metrics.Registry { return s.instr.reg }

// MetricsSnapshot captures every session instrument's point-in-time state.
func (s *Session) MetricsSnapshot() []metrics.Snapshot { return s.instr.reg.Snapshot() }
