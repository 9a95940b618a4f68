package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"daisy/internal/vfs"
)

// TestAppendReadRoundTrip: records come back in order with their LSNs and
// payloads across a close/reopen cycle.
func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLogFS(vfs.OS{}, dir, SyncOS, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		res, err := l.Append([]byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if res.LSN != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", res.LSN, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := RecordsFS(vfs.OS{}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || string(r.Payload) != fmt.Sprintf("rec-%d", i) {
			t.Fatalf("record %d = {%d %q}", i, r.LSN, r.Payload)
		}
	}
	// The `after` filter skips covered records.
	recs, err = RecordsFS(vfs.OS{}, dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].LSN != 4 {
		t.Fatalf("after=3: got %v", recs)
	}
	// Reopen continues the LSN sequence.
	l2, err := OpenLogFS(vfs.OS{}, dir, SyncOS, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	res, err := l2.Append([]byte("rec-5"))
	if err != nil {
		t.Fatal(err)
	}
	if res.LSN != 6 {
		t.Fatalf("post-reopen lsn = %d, want 6", res.LSN)
	}
}

// TestTornTailTruncatedOnOpen: a crash mid-append leaves a partial frame;
// reading stops at the boundary and reopening truncates the tear so new
// appends land on a clean boundary.
func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLogFS(vfs.OS{}, dir, SyncOS, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("whole")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("will-be-torn")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logFileName(1))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record 3 bytes short.
	if err := os.WriteFile(path, buf[:len(buf)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := RecordsFS(vfs.OS{}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "whole" {
		t.Fatalf("torn log read = %v", recs)
	}
	l2, err := OpenLogFS(vfs.OS{}, dir, SyncOS, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := l2.Append([]byte("after-crash")); err != nil || res.LSN != 2 {
		t.Fatalf("append after tear: lsn=%d err=%v, want 2", res.LSN, err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err = RecordsFS(vfs.OS{}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[1].Payload) != "after-crash" {
		t.Fatalf("post-recovery read = %v", recs)
	}
}

// TestCorruptPayloadStopsRead: a bit flip in the final record's payload
// fails the CRC and reads as a torn tail.
func TestCorruptPayloadStopsRead(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLogFS(vfs.OS{}, dir, SyncOS, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("flipped")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logFileName(1))
	buf, _ := os.ReadFile(path)
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := RecordsFS(vfs.OS{}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "good" {
		t.Fatalf("corrupt-tail read = %v", recs)
	}
}

// TestRotateAndPrune: rotation starts a fresh file, a checkpoint covering
// the old file lets Prune retire it, and replay after the checkpoint sees
// only the tail records.
func TestRotateAndPrune(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLogFS(vfs.OS{}, dir, SyncOS, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	ckLSN := l.LastLSN()
	if err := WriteCheckpointFS(vfs.OS{}, dir, ckLSN, []byte("state@3")); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if l.TailSize() != 0 {
		t.Fatalf("tail after rotate = %d", l.TailSize())
	}
	if _, err := l.Append([]byte("new")); err != nil {
		t.Fatal(err)
	}
	if _, err := PruneFS(vfs.OS{}, dir, ckLSN); err != nil {
		t.Fatal(err)
	}
	files, err := logFiles(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].start != 4 {
		t.Fatalf("post-prune files = %v", files)
	}
	lsn, payload, ok, err := LatestCheckpointFS(vfs.OS{}, dir)
	if err != nil || !ok || lsn != ckLSN || string(payload) != "state@3" {
		t.Fatalf("checkpoint = (%d, %q, %v, %v)", lsn, payload, ok, err)
	}
	recs, err := RecordsFS(vfs.OS{}, dir, lsn)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "new" {
		t.Fatalf("records after checkpoint = %v", recs)
	}
}

// TestCheckpointFallback: a corrupt newest checkpoint (simulating a crash
// mid-publication that somehow renamed, or disk corruption) falls back to
// the previous valid one; leftover .tmp files are ignored and pruned.
func TestCheckpointFallback(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpointFS(vfs.OS{}, dir, 5, []byte("good@5")); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpointFS(vfs.OS{}, dir, 9, bytes.Repeat([]byte("x"), 64)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest checkpoint's payload.
	path := filepath.Join(dir, ckptFileName(9))
	buf, _ := os.ReadFile(path)
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	// And leave a stale tmp behind, as an interrupted publication would.
	if err := os.WriteFile(filepath.Join(dir, ckptFileName(12)+".tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	lsn, payload, ok, err := LatestCheckpointFS(vfs.OS{}, dir)
	if err != nil || !ok || lsn != 5 || string(payload) != "good@5" {
		t.Fatalf("fallback checkpoint = (%d, %q, %v, %v)", lsn, payload, ok, err)
	}
	if _, err := PruneFS(vfs.OS{}, dir, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptFileName(12)+".tmp")); !os.IsNotExist(err) {
		t.Fatal("stale .tmp survived Prune")
	}
}

// TestMinNextFloorsLSN: with every record pruned by a checkpoint, a reopened
// log must not reissue covered LSNs.
func TestMinNextFloorsLSN(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLogFS(vfs.OS{}, dir, SyncOS, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	res, err := l.Append([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	if res.LSN != 8 {
		t.Fatalf("floored lsn = %d, want 8", res.LSN)
	}
}

// TestRecordBoundaries: Record.End offsets let a harness truncate the log at
// any record boundary — the resulting prefix must read back exactly.
func TestRecordBoundaries(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLogFS(vfs.OS{}, dir, SyncOS, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := RecordsFS(vfs.OS{}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(recs); k++ {
		sub := t.TempDir()
		buf, err := os.ReadFile(recs[k].File)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, filepath.Base(recs[k].File)), buf[:recs[k].End], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := RecordsFS(vfs.OS{}, sub, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k+1 || got[k].LSN != recs[k].LSN {
			t.Fatalf("truncation at record %d read %d records", k, len(got))
		}
	}
}

// TestAppendFailureUndoneAndRetryable: a failed write (even a torn one that
// left half a frame on disk) consumes no LSN; retrying the same payload
// succeeds and the log reads back contiguous, including under SyncAlways
// with an fsync failure (bytes hit disk but weren't durable — the frame is
// truncated away so the retry doesn't duplicate the LSN).
func TestAppendFailureUndoneAndRetryable(t *testing.T) {
	isWrite := func(op vfs.Op, _ string) bool { return op == vfs.OpWrite }
	isSync := func(op vfs.Op, _ string) bool { return op == vfs.OpSync }
	cases := []struct {
		name  string
		mode  SyncMode
		fault vfs.Fault
	}{
		{"write-enospc", SyncOS, vfs.Fault{Count: 1, Match: isWrite, Err: vfs.ENOSPC("wal")}},
		{"write-torn", SyncOS, vfs.Fault{Count: 1, Match: isWrite, Torn: true}},
		{"fsync", SyncAlways, vfs.Fault{Count: 1, Match: isSync}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFaultFS(vfs.OS{})
			l, err := OpenLogFS(ffs, dir, tc.mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append([]byte("first")); err != nil {
				t.Fatal(err)
			}
			ffs.Arm(tc.fault)
			if _, err := l.Append([]byte("second")); err == nil {
				t.Fatal("faulted append should error")
			}
			// The failed append consumed no LSN; the retry gets LSN 2.
			res, err := l.Append([]byte("second"))
			if err != nil {
				t.Fatalf("retry failed: %v", err)
			}
			if res.LSN != 2 {
				t.Fatalf("retry lsn = %d, want 2", res.LSN)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			recs, err := RecordsFS(vfs.OS{}, dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 2 || recs[1].LSN != 2 || string(recs[1].Payload) != "second" {
				t.Fatalf("post-retry records = %v", recs)
			}
		})
	}
}

// TestDirtyTailRefusesAppends: when the undo-truncate after a torn write
// also fails, Append reports ErrDirtyTail, further appends refuse, and a
// clean reopen truncates the tear back to the last whole record.
func TestDirtyTailRefusesAppends(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS{})
	l, err := OpenLogFS(ffs, dir, SyncOS, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("keep-me")); err != nil {
		t.Fatal(err)
	}
	// Everything from the next write on fails: the torn write lands half a
	// frame, and the repair truncate fails too.
	ffs.Arm(vfs.Fault{Count: -1, Torn: true, Match: func(op vfs.Op, _ string) bool {
		return op == vfs.OpWrite || op == vfs.OpTruncate
	}})
	if _, err := l.Append([]byte("torn")); !errors.Is(err, ErrDirtyTail) {
		t.Fatalf("want ErrDirtyTail, got %v", err)
	}
	if _, err := l.Append([]byte("after")); !errors.Is(err, ErrDirtyTail) {
		t.Fatalf("append after dirty tail: want ErrDirtyTail, got %v", err)
	}
	l.Close()
	ffs.Disarm()
	// The tear is in the final file: reopen truncates it and the surviving
	// prefix reads back exactly.
	l2, err := OpenLogFS(vfs.OS{}, dir, SyncOS, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, err := RecordsFS(vfs.OS{}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "keep-me" {
		t.Fatalf("post-dirty-tail records = %v", recs)
	}
	if res, err := l2.Append([]byte("fresh")); err != nil || res.LSN != 2 {
		t.Fatalf("append after reopen: lsn=%d err=%v", res.LSN, err)
	}
}

// TestPruneKeepsFallbackCheckpoint: Prune retains the newest two checkpoints
// and the log files the older one needs, so recovery can survive corruption
// of the newest image; a third checkpoint retires the oldest.
func TestPruneKeepsFallbackCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLogFS(vfs.OS{}, dir, SyncOS, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := l.Append([]byte("r")); err != nil {
				t.Fatal(err)
			}
		}
	}
	ckpt := func() uint64 {
		lsn := l.LastLSN()
		if err := WriteCheckpointFS(vfs.OS{}, dir, lsn, []byte("state")); err != nil {
			t.Fatal(err)
		}
		if err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
		if _, err := PruneFS(vfs.OS{}, dir, lsn); err != nil {
			t.Fatal(err)
		}
		return lsn
	}
	appendN(3)
	ck1 := ckpt()
	appendN(3)
	ck2 := ckpt()
	appendN(1)

	lsns, err := ckptLSNs(vfs.OS{}, dir)
	if err != nil || len(lsns) != 2 || lsns[0] != ck1 || lsns[1] != ck2 {
		t.Fatalf("checkpoints after second prune = %v (want [%d %d])", lsns, ck1, ck2)
	}
	// Records between ck1 and ck2 must still be replayable (the fallback
	// path if ck2's image is corrupted).
	recs, err := RecordsFS(vfs.OS{}, dir, ck1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[0].LSN != ck1+1 {
		t.Fatalf("fallback replay records = %v", recs)
	}
	appendN(3)
	ck3 := ckpt()
	lsns, _ = ckptLSNs(vfs.OS{}, dir)
	if len(lsns) != 2 || lsns[0] != ck2 || lsns[1] != ck3 {
		t.Fatalf("checkpoints after third prune = %v (want [%d %d])", lsns, ck2, ck3)
	}
	if recs, err := RecordsFS(vfs.OS{}, dir, ck2); err != nil || len(recs) != 4 {
		t.Fatalf("replay from ck2 = %v, %v", recs, err)
	}
}

// TestPruneCountsRemoveFailures: a stuck file no longer disappears silently —
// PruneFS reports how many removals failed and the first error.
func TestPruneCountsRemoveFailures(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLogFS(vfs.OS{}, dir, SyncOS, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 2; i++ {
		if _, err := l.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "ckpt-junk.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ffs := vfs.NewFaultFS(vfs.OS{})
	ffs.Arm(vfs.Fault{Count: -1, Match: func(op vfs.Op, _ string) bool { return op == vfs.OpRemove }})
	st, err := PruneFS(ffs, dir, l.LastLSN())
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != 1 || st.FirstErr == nil {
		t.Fatalf("PruneStats = %+v, want 1 counted failure", st)
	}
	if _, serr := os.Stat(filepath.Join(dir, "ckpt-junk.tmp")); serr != nil {
		t.Fatalf("tmp should have survived the failed removal: %v", serr)
	}
	// With the fault gone the same prune succeeds and the tmp goes away.
	st, err = PruneFS(vfs.OS{}, dir, l.LastLSN())
	if err != nil || st.Failed != 0 || st.Removed != 1 {
		t.Fatalf("clean PruneStats = %+v, %v", st, err)
	}
}
