package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"daisy/internal/vfs"
)

// Checkpoint files carry a full-state image covering every record with
// LSN <= the checkpoint's LSN. Format: [magic:4 | lsn:8 | payloadLen:8 |
// CRC32C(payload):4 | payload], written to a .tmp sibling, fsynced, and
// renamed into place so a checkpoint is either wholly present or absent —
// a crash mid-checkpoint leaves the previous checkpoint authoritative.

var ckptMagic = [4]byte{'D', 'C', 'K', 'P'}

const ckptHeader = 4 + 8 + 8 + 4

// WriteCheckpointFS atomically publishes a checkpoint covering records <= lsn.
func WriteCheckpointFS(fsys vfs.FS, dir string, lsn uint64, payload []byte) error {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	final := filepath.Join(dir, ckptFileName(lsn))
	tmp := final + ".tmp"
	buf := make([]byte, ckptHeader, ckptHeader+len(payload))
	copy(buf[0:4], ckptMagic[:])
	binary.LittleEndian.PutUint64(buf[4:12], lsn)
	binary.LittleEndian.PutUint64(buf[12:20], uint64(len(payload)))
	binary.LittleEndian.PutUint32(buf[20:24], crc32.Checksum(payload, crcTable))
	buf = append(buf, payload...)
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, final); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return syncDir(fsys, dir)
}

// LatestCheckpointFS returns the newest valid checkpoint in dir. Invalid
// candidates — torn payloads, CRC failures, leftover .tmp files — are
// skipped, falling back to the next-newest, so a crash at any point of
// checkpoint publication (or bit rot in the newest image) recovers from the
// previous one.
func LatestCheckpointFS(fsys vfs.FS, dir string) (lsn uint64, payload []byte, ok bool, err error) {
	lsns, err := ckptLSNs(fsys, dir)
	if err != nil {
		return 0, nil, false, err
	}
	for i := len(lsns) - 1; i >= 0; i-- {
		payload, ok := readCheckpoint(fsys, filepath.Join(dir, ckptFileName(lsns[i])), lsns[i])
		if ok {
			return lsns[i], payload, true, nil
		}
	}
	return 0, nil, false, nil
}

// readCheckpoint validates and decodes one checkpoint file; any structural
// problem reports !ok rather than an error (the caller falls back).
func readCheckpoint(fsys vfs.FS, path string, want uint64) ([]byte, bool) {
	buf, err := fsys.ReadFile(path)
	if err != nil || len(buf) < ckptHeader {
		return nil, false
	}
	if [4]byte(buf[0:4]) != ckptMagic {
		return nil, false
	}
	lsn := binary.LittleEndian.Uint64(buf[4:12])
	n := binary.LittleEndian.Uint64(buf[12:20])
	sum := binary.LittleEndian.Uint32(buf[20:24])
	if lsn != want || n != uint64(len(buf)-ckptHeader) {
		return nil, false
	}
	payload := buf[ckptHeader:]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, false
	}
	return payload, true
}

// PruneStats reports what PruneFS removed and, crucially, what it could not:
// a stuck file grows the directory forever, so removal failures are counted
// and surfaced instead of silently ignored.
type PruneStats struct {
	Removed  int   // files successfully deleted
	Failed   int   // deletions that errored
	FirstErr error // the first deletion error, for logging/diagnostics
}

// PruneFS removes files made redundant by a valid checkpoint at lsn, while
// retaining enough history that recovery can fall back one checkpoint: the
// newest two checkpoints are kept (LatestCheckpointFS skips a corrupt newest
// image and replays the longer WAL suffix from the previous one), so log
// files are pruned against the OLDER retained checkpoint's LSN — a rotated
// file is removed only when the next file's first LSN is <= cover+1, i.e.
// every record it holds is covered by the fallback checkpoint too. Leftover
// .tmp files are always removed; the current tail log file never is.
//
// Removal failures do not abort the sweep; they are counted in the returned
// stats. The returned error reflects listing/syncing problems only.
func PruneFS(fsys vfs.FS, dir string, lsn uint64) (PruneStats, error) {
	var st PruneStats
	rm := func(path string) {
		if err := fsys.Remove(path); err != nil {
			st.Failed++
			if st.FirstErr == nil {
				st.FirstErr = err
			}
		} else {
			st.Removed++
		}
	}
	lsns, err := ckptLSNs(fsys, dir)
	if err != nil {
		return st, err
	}
	cover := lsn
	if n := len(lsns); n >= 2 {
		if prev := lsns[n-2]; prev < cover {
			cover = prev
		}
		for _, l := range lsns[:n-2] {
			rm(filepath.Join(dir, ckptFileName(l)))
		}
	}
	entries, _ := fsys.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			rm(filepath.Join(dir, e.Name()))
		}
	}
	files, err := logFiles(fsys, dir)
	if err != nil {
		return st, err
	}
	for i := 0; i+1 < len(files); i++ {
		if files[i+1].start <= cover+1 {
			rm(files[i].path)
		}
	}
	return st, syncDir(fsys, dir)
}

// TrimAfterFS deletes every record with LSN > lsn from the directory:
// whole files starting past lsn are removed, and the boundary file is
// truncated at the last covered record's frame end. The re-attach cycle runs
// it before reopening the log: a degraded period can leave "zombie" frames
// behind — fully written but never acknowledged, because the append failed
// on fsync and the undo-truncate failed too — whose effects are inside the
// superseding checkpoint image. A reader cannot tell them from real records,
// so replaying them would double-apply; they must leave the directory before
// journaling resumes.
func TrimAfterFS(fsys vfs.FS, dir string, lsn uint64) error {
	files, err := logFiles(fsys, dir)
	if err != nil {
		return err
	}
	for _, lf := range files {
		if lf.start > lsn {
			if err := fsys.Remove(lf.path); err != nil {
				return err
			}
			continue
		}
		recs, _, err := scanFile(fsys, lf.path, lsn)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			continue
		}
		// Cut at the frame start of the first record past lsn.
		first := recs[0]
		cut := first.End - frameHeader - int64(len(first.Payload))
		if err := fsys.Truncate(lf.path, cut); err != nil {
			return err
		}
	}
	return nil
}

func ckptFileName(lsn uint64) string {
	return fmt.Sprintf("ckpt-%016x.ckpt", lsn)
}

// ckptLSNs lists checkpoint LSNs present in dir in ascending order.
func ckptLSNs(fsys vfs.FS, dir string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		var lsn uint64
		if _, err := fmt.Sscanf(name, "ckpt-%016x.ckpt", &lsn); err != nil {
			continue
		}
		out = append(out, lsn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// syncDir fsyncs the directory so renames and removals are durable.
func syncDir(fsys vfs.FS, dir string) error {
	err := fsys.SyncDir(dir)
	// Some platforms refuse fsync on directories; durability of the rename
	// then rides the next file fsync, which is acceptable for SyncOS and a
	// documented caveat for SyncAlways.
	if err != nil && os.IsPermission(err) {
		return nil
	}
	return err
}
