package core

import (
	"errors"
	"time"

	"daisy/internal/wal"
)

// DurabilityState is where a session sits in the durability lifecycle:
//
//	memory ───(attach on Open)──▶ healthy ──(append/fsync error)──▶ retrying
//	                                 ▲                                  │
//	                                 │ (flush succeeds)                 │ (retries exhausted,
//	                                 └──────────────────────────────────┤  or unrepairable tail)
//	                                                                    ▼
//	              reattached ◀──(full checkpoint succeeds)────────── degraded
//
// While retrying, mutations keep publishing in memory and their records
// buffer in order; a bounded, exponentially backed-off episode re-appends
// them off the query path. Degraded detaches the log — the directory keeps
// its last consistent prefix and every mutation is memory-only — until a
// subsequent full checkpoint supersedes the holed history, rotates to a
// fresh WAL file, and resumes journaling (reattached). Reattached is
// operationally healthy; it exists as a distinct state so operators can see
// that a degraded period happened and was recovered.
type DurabilityState int32

const (
	// DurabilityMemory: the session has no directory; nothing journals.
	DurabilityMemory DurabilityState = iota
	// DurabilityHealthy: the WAL is attached and appends succeed.
	DurabilityHealthy
	// DurabilityRetrying: an append or fsync failed; records buffer while a
	// bounded backoff episode retries them.
	DurabilityRetrying
	// DurabilityDegraded: retries exhausted (or the tail was unrepairable);
	// the log is detached and mutations are memory-only.
	DurabilityDegraded
	// DurabilityReattached: a full checkpoint succeeded while degraded; the
	// log was rotated and journaling resumed.
	DurabilityReattached
)

func (st DurabilityState) String() string {
	switch st {
	case DurabilityMemory:
		return "memory"
	case DurabilityHealthy:
		return "healthy"
	case DurabilityRetrying:
		return "retrying"
	case DurabilityDegraded:
		return "degraded"
	case DurabilityReattached:
		return "reattached"
	default:
		return "unknown"
	}
}

// DurabilityPolicy selects how a session's callers should treat degraded
// durability. The engine itself always degrades-and-continues (queries never
// fail on a storage fault); the policy is the contract the serving layer
// enforces: fail-open tenants keep mutating in memory, fail-closed tenants
// have mutating requests rejected with 503 + Retry-After while degraded.
type DurabilityPolicy int

const (
	// FailOpen (default): keep serving and mutating while degraded.
	FailOpen DurabilityPolicy = iota
	// FailClosed: the serving layer rejects mutating requests while the
	// session is degraded, so no acknowledged write can be lost on crash.
	FailClosed
)

func (p DurabilityPolicy) String() string {
	if p == FailClosed {
		return "fail-closed"
	}
	return "fail-open"
}

// durabilityConfig resolves the Options knobs the writer's retry machinery
// needs (kept on the writer so the apply goroutine never references the
// Session).
type durabilityConfig struct {
	attempts int           // retry attempts before degrading (0: degrade on first failure)
	backoff  time.Duration // initial backoff, doubling per attempt
}

// durabilityState returns the current state (any goroutine).
func (w *writer) durabilityState() DurabilityState {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durState
}

// setStateLocked moves the state machine and mirrors it into the gauge.
func (w *writer) setStateLocked(st DurabilityState) {
	w.durState = st
	w.instr.durState.Set(int64(st))
}

// failAppendLocked handles one failed WAL append (caller holds mu, err is
// not ErrClosed): remember the first error, buffer the record, and start a
// retry episode — or degrade immediately when the tail is unrepairable,
// retries are disabled, or the session is closing.
func (w *writer) failAppendLocked(rec []byte, err error) {
	if w.walErr == nil {
		w.walErr = err
	}
	if errors.Is(err, wal.ErrDirtyTail) || w.durCfg.attempts <= 0 || w.closed.Load() {
		w.degradeLocked()
		return
	}
	w.pending = append(w.pending, rec)
	w.setStateLocked(DurabilityRetrying)
	w.startRetryLocked()
}

// degradeLocked detaches the log: buffered records are dropped (their LSNs
// were never consumed, so the directory ends at its last consistent prefix),
// the log file closes, and mutations continue memory-only. The checkpointer
// exits this state by writing a full checkpoint and re-attaching.
func (w *writer) degradeLocked() {
	w.pending = nil
	if w.wlog != nil {
		l := w.wlog
		w.wlog = nil
		_ = l.Close()
	}
	w.setStateLocked(DurabilityDegraded)
}

// startRetryLocked spawns the retry episode goroutine (at most one live).
func (w *writer) startRetryLocked() {
	if w.retryDone != nil {
		return
	}
	done := make(chan struct{})
	w.retryDone = done
	go w.retryLoop(done)
}

// retryLoop is one bounded retry episode: sleep (exponential backoff,
// off the writer mutex so queries keep publishing), then take the mutex and
// re-append the buffered records in order. A full flush ends the episode
// healthy; exhausting the attempts degrades. Session shutdown (quit) exits
// early — writer.close makes one final inline flush attempt before closing
// the log.
func (w *writer) retryLoop(done chan struct{}) {
	defer func() {
		w.mu.Lock()
		w.retryDone = nil
		w.mu.Unlock()
		close(done)
	}()
	backoff := w.durCfg.backoff
	for attempt := 0; attempt < w.durCfg.attempts; attempt++ {
		select {
		case <-time.After(backoff):
		case <-w.quit:
			return
		}
		backoff *= 2
		w.mu.Lock()
		if w.durState != DurabilityRetrying {
			w.mu.Unlock()
			return
		}
		w.instr.walRetries.Inc()
		flushed := w.flushPendingLocked()
		w.mu.Unlock()
		if flushed {
			return
		}
	}
	w.mu.Lock()
	if w.durState == DurabilityRetrying {
		w.degradeLocked()
	}
	w.mu.Unlock()
	// Wake the checkpointer so the re-attach cycle starts promptly.
	w.nudgeCheckpoint()
}

// flushPendingLocked re-appends the buffered records in order, reporting
// whether the buffer fully drained — the episode then ends healthy (a
// transient fault that healed leaves no trace but metrics). A mid-flush
// failure keeps the remaining suffix buffered in order; an unrepairable
// tail degrades immediately.
func (w *writer) flushPendingLocked() bool {
	for len(w.pending) > 0 {
		if w.wlog == nil {
			return false
		}
		res, err := w.wlog.Append(w.pending[0])
		if err != nil {
			if errors.Is(err, wal.ErrDirtyTail) {
				w.degradeLocked()
			}
			return false
		}
		w.lastLSN = res.LSN
		w.pending = w.pending[1:]
	}
	w.walErr = nil
	w.setStateLocked(DurabilityHealthy)
	return true
}

// waitRetryEpisode blocks until no retry episode is live. Checkpoint capture
// must not interleave with a flush: records flushed after the image is
// captured would carry LSNs above the checkpoint's cover LSN while their
// effects are already inside the image — replay would double-apply them.
// Episodes are bounded (attempts × backoff), so this terminates.
func (w *writer) waitRetryEpisode() {
	for {
		w.mu.Lock()
		done := w.retryDone
		w.mu.Unlock()
		if done == nil {
			return
		}
		<-done
	}
}

// captureForCheckpoint atomically captures the checkpoint inputs with no
// retry episode live: the snapshot, the highest durably appended LSN (every
// record <= it is on disk, every buffered record was dropped or not yet
// assigned), and whether the session is degraded (the checkpointer then
// re-attaches after publishing).
func (w *writer) captureForCheckpoint() (snap *snapshot, lsn uint64, degraded bool) {
	for {
		w.waitRetryEpisode()
		w.mu.Lock()
		if w.retryDone != nil {
			// A new episode started between the wait and the lock; wait again.
			w.mu.Unlock()
			continue
		}
		snap, lsn, degraded = w.current(), w.lastLSN, w.durState == DurabilityDegraded
		w.mu.Unlock()
		return snap, lsn, degraded
	}
}

// attachLog installs the recovered log on a fresh session (Open path).
func (w *writer) attachLog(wlog *wal.Log) {
	w.mu.Lock()
	w.wlog = wlog
	w.lastLSN = wlog.LastLSN()
	w.setStateLocked(DurabilityHealthy)
	w.mu.Unlock()
}

// reattachLog resumes journaling on a degraded writer after a successful
// full checkpoint. Refuses (caller closes the log) when the writer is
// closing or no longer degraded.
func (w *writer) reattachLog(wlog *wal.Log) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Load() || w.durState != DurabilityDegraded {
		return false
	}
	w.wlog = wlog
	w.lastLSN = wlog.LastLSN()
	w.walErr = nil
	w.setStateLocked(DurabilityReattached)
	return true
}
