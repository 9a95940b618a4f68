// Package wal implements the on-disk durability substrate under Daisy's
// single-writer apply loop: an append-only, CRC-framed write-ahead log plus
// atomically written checkpoint files. The package is deliberately ignorant
// of what the payloads mean — record encoding of epochs, deltas, and checked
// sets lives with the writer in internal/core — and owns only the framing,
// torn-tail recovery, rotation, and file-retention mechanics.
//
// All filesystem access goes through a vfs.FS, so tests can inject faults
// (ENOSPC, torn writes, fsync failures) at any call site; every function
// takes the filesystem explicitly (vfs.OS{} is the real one).
//
// Layout of a durable session directory:
//
//	wal-<firstLSN>.log   append-only record files; rotated at checkpoints
//	ckpt-<lsn>.ckpt      full-state checkpoints covering every record <= lsn
//
// Each record is framed as [LSN:8 | payloadLen:4 | CRC32C(payload):4 |
// payload]. LSNs start at 1 and increase by one per record across file
// rotations. A crash can tear only the final record of the final file; the
// reader detects the tear by length/CRC and the writer truncates it on open,
// so the log always reopens at a record boundary. A *failed* append is
// likewise undone by truncating back to the pre-append boundary, so an I/O
// error never consumes an LSN and the same record can be retried without
// holing the journal.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"daisy/internal/metrics"
	"daisy/internal/vfs"
)

// SyncMode selects how eagerly records reach stable storage.
type SyncMode int

const (
	// SyncOS writes records to the OS page cache without fsync. State
	// survives a process crash (SIGKILL, panic) — the kernel completes the
	// write — but the tail since the last checkpoint may be lost on power
	// failure or kernel panic. This is the default: it keeps the WAL off the
	// apply path's critical latency.
	SyncOS SyncMode = iota
	// SyncAlways fsyncs after every record: records survive power failure at
	// the cost of one fsync per apply batch.
	SyncAlways
)

const frameHeader = 8 + 4 + 4 // LSN + length + CRC

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by Append and Sync after Close.
var ErrClosed = errors.New("wal: log closed")

// ErrDirtyTail is returned (wrapped) when an append failed mid-frame AND the
// truncate that would have undone the partial frame also failed: the file
// ends in a torn record that later appends would bury, making every record
// after it unreachable to the reader. The log refuses further appends — the
// caller must detach it and recover via a fresh checkpoint. Reopening the
// directory remains safe: the tear is in the final file, where open-time
// truncation removes it.
var ErrDirtyTail = errors.New("wal: torn tail could not be repaired")

// maxRecordLen bounds a single record payload (a full-relation replace image
// is the largest legitimate record); anything above it in a frame header is
// treated as corruption rather than allocated.
const maxRecordLen = 1 << 31

// Log is the append side of a write-ahead log directory. All methods are
// safe for concurrent use, though Daisy serializes appends under the writer
// mutex anyway.
type Log struct {
	fs   vfs.FS
	dir  string
	mode SyncMode

	mu      sync.Mutex
	f       vfs.File // current file; nil until the first append after open/rotate
	fpath   string   // path of the current file
	start   uint64   // first LSN of the current file
	nextLSN uint64
	tail    int64 // bytes appended since the last rotation (checkpoint trigger input)
	closed  bool
	dirty   bool // an unrepaired torn tail exists; appends refuse

	// instr are the optional metrics hooks; the zero value no-ops.
	instr Instruments
}

// Instruments are the log's optional metrics hooks (nil instruments no-op):
// append counts/bytes/errors, fsync latency, and file rotations.
type Instruments struct {
	Appends       *metrics.Counter
	AppendedBytes *metrics.Counter
	AppendErrors  *metrics.Counter
	Rotations     *metrics.Counter
	SyncSec       *metrics.Histogram
}

// SetInstruments installs the metrics hooks; call once after OpenLogFS, before
// serving traffic.
func (l *Log) SetInstruments(in Instruments) {
	l.mu.Lock()
	l.instr = in
	l.mu.Unlock()
}

// syncTimed fsyncs the current file, observing and returning the latency.
func (l *Log) syncTimed() (time.Duration, error) {
	t0 := time.Now()
	err := l.f.Sync()
	d := time.Since(t0)
	l.instr.SyncSec.ObserveDuration(d)
	return d, err
}

// OpenLogFS opens (creating if needed) the log in dir for appending.
// Existing files are scanned; a torn final record is truncated away. minNext
// floors the next LSN — pass the latest checkpoint's LSN so a fully pruned
// log (all records covered by the checkpoint) does not reissue old LSNs.
func OpenLogFS(fsys vfs.FS, dir string, mode SyncMode, minNext uint64) (*Log, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	files, err := logFiles(fsys, dir)
	if err != nil {
		return nil, err
	}
	l := &Log{fs: fsys, dir: dir, mode: mode, nextLSN: minNext + 1}
	if n := len(files); n > 0 {
		last := files[n-1]
		recs, valid, err := scanFile(fsys, last.path, 0)
		if err != nil {
			return nil, err
		}
		if info, err := fsys.Stat(last.path); err == nil && info.Size() > valid {
			// Torn tail from a crash mid-append: cut back to the last whole
			// record so the file reopens at a frame boundary.
			if err := fsys.Truncate(last.path, valid); err != nil {
				return nil, err
			}
		}
		next := last.start // empty file: continue its LSN range
		if len(recs) > 0 {
			next = recs[len(recs)-1].LSN + 1
		}
		if next > l.nextLSN {
			l.nextLSN = next
		}
		f, err := fsys.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		l.f, l.fpath, l.start, l.tail = f, last.path, last.start, valid
	}
	return l, nil
}

// AppendResult is one successful Append's accounting: the consumed LSN, the
// framed bytes written, and the time spent in fsync (zero unless the log
// runs under SyncAlways). The tracing layer turns it into wal.append /
// wal.fsync spans on the submitting query's publish span.
type AppendResult struct {
	LSN   uint64
	Bytes int
	Sync  time.Duration
}

// Append frames payload as the next record and writes it, returning the
// record's accounting. Under SyncAlways the record is fsynced before return.
//
// On failure no LSN is consumed: the partial frame (write failures) or the
// unsynced frame (fsync failures) is truncated away so the file stays at a
// record boundary and the caller may retry the same payload. If that undo
// truncate itself fails, the error wraps ErrDirtyTail and the log refuses
// all further appends.
func (l *Log) Append(payload []byte) (AppendResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return AppendResult{}, ErrClosed
	}
	if l.dirty {
		return AppendResult{}, fmt.Errorf("%w (previous append)", ErrDirtyTail)
	}
	if l.f == nil {
		if err := l.openFileLocked(l.nextLSN); err != nil {
			l.instr.AppendErrors.Inc()
			return AppendResult{}, err
		}
	}
	lsn := l.nextLSN
	frame := make([]byte, frameHeader, frameHeader+len(payload))
	binary.LittleEndian.PutUint64(frame[0:8], lsn)
	binary.LittleEndian.PutUint32(frame[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[12:16], crc32.Checksum(payload, crcTable))
	frame = append(frame, payload...)
	if _, err := l.f.Write(frame); err != nil {
		l.instr.AppendErrors.Inc()
		return AppendResult{}, l.undoAppendLocked(err)
	}
	var syncDur time.Duration
	if l.mode == SyncAlways {
		var err error
		if syncDur, err = l.syncTimed(); err != nil {
			l.instr.AppendErrors.Inc()
			return AppendResult{}, l.undoAppendLocked(err)
		}
	}
	l.nextLSN++
	l.tail += int64(len(frame))
	l.instr.Appends.Inc()
	l.instr.AppendedBytes.Add(int64(len(frame)))
	return AppendResult{LSN: lsn, Bytes: len(frame), Sync: syncDur}, nil
}

// undoAppendLocked repairs the file after a failed append by truncating back
// to the pre-append boundary (l.tail bytes — the file size before the failed
// write, since a rotated-in file starts at its scanned valid length and each
// successful append adds its frame length). Returns cause when the repair
// succeeds; marks the log dirty and wraps ErrDirtyTail when it does not.
func (l *Log) undoAppendLocked(cause error) error {
	if terr := l.fs.Truncate(l.fpath, l.tail); terr != nil {
		l.dirty = true
		l.f.Close()
		l.f = nil
		return fmt.Errorf("%w: truncate to %d: %v (append error: %v)", ErrDirtyTail, l.tail, terr, cause)
	}
	return cause
}

// LastLSN returns the LSN of the most recently appended record (0 if none
// were ever appended to this directory).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// TailSize returns the bytes appended since the last rotation — the input to
// the automatic-checkpoint trigger.
func (l *Log) TailSize() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail
}

// Sync flushes the current file to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.f == nil {
		return nil
	}
	_, err := l.syncTimed()
	return err
}

// Rotate fsyncs and closes the current file; the next Append starts a fresh
// one. Called after a checkpoint so PruneFS can retire fully covered files.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.f == nil {
		return nil
	}
	if _, err := l.syncTimed(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.f, l.tail = nil, 0
	l.instr.Rotations.Inc()
	return nil
}

// Close fsyncs and closes the log. Idempotent; appends after Close return
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

func (l *Log) openFileLocked(start uint64) error {
	path := filepath.Join(l.dir, logFileName(start))
	// O_APPEND matters beyond convention: after a failed append is undone by
	// truncating the file, the next write must land at the new end, not at
	// the fd's stale offset (which would leave a hole of zero bytes).
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f, l.fpath, l.start, l.tail = f, path, start, 0
	return nil
}

func logFileName(start uint64) string {
	return fmt.Sprintf("wal-%016x.log", start)
}

type logFile struct {
	path  string
	start uint64
}

// logFiles lists the directory's wal files ordered by first LSN.
func logFiles(fsys vfs.FS, dir string) ([]logFile, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []logFile
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		var start uint64
		if _, err := fmt.Sscanf(name, "wal-%016x.log", &start); err != nil {
			continue
		}
		out = append(out, logFile{path: filepath.Join(dir, name), start: start})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out, nil
}
