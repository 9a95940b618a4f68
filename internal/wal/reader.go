package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"daisy/internal/vfs"
)

// Record is one decoded log record. File and End expose the record's
// physical boundary — the crash-injection harness truncates the log at End
// to simulate a kill exactly after this record reached disk.
type Record struct {
	LSN     uint64
	Payload []byte
	File    string // path of the wal file holding the record
	End     int64  // file offset just past the record's frame
}

// RecordsFS returns every valid record with LSN > after, in strictly
// increasing LSN order, across all log files in dir. A torn or corrupt record
// in the final file marks the crash point and scanning stops cleanly there;
// corruption in a rotated (non-final) file is real data loss and returns an
// error, since rotated files were fsynced whole. So does a file whose records
// do not continue after the previous file's.
func RecordsFS(fsys vfs.FS, dir string, after uint64) ([]Record, error) {
	files, err := logFiles(fsys, dir)
	if err != nil {
		return nil, err
	}
	var out []Record
	for i, lf := range files {
		recs, valid, err := scanFile(fsys, lf.path, after)
		if err != nil {
			return nil, err
		}
		if i < len(files)-1 {
			if info, serr := fsys.Stat(lf.path); serr == nil && info.Size() > valid {
				return nil, fmt.Errorf("wal: corrupt record at %s offset %d (not the final file)", lf.path, valid)
			}
		}
		if len(out) > 0 && len(recs) > 0 && recs[0].LSN <= out[len(out)-1].LSN {
			return nil, fmt.Errorf("wal: LSN %d in %s does not follow LSN %d", recs[0].LSN, lf.path, out[len(out)-1].LSN)
		}
		out = append(out, recs...)
	}
	return out, nil
}

// scanFile decodes records with LSN > after from one log file, returning
// them plus the offset of the first invalid byte (== file size when the file
// is wholly valid). Scanning stops at the first torn or CRC-failing frame,
// and at a frame whose LSN does not exceed its predecessor's: appends number
// records consecutively, so such a frame is corruption, not history.
func scanFile(fsys vfs.FS, path string, after uint64) ([]Record, int64, error) {
	buf, err := fsys.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var out []Record
	var off int64
	var last uint64 // LSNs start at 1
	for int64(len(buf))-off >= frameHeader {
		h := buf[off : off+frameHeader]
		lsn := binary.LittleEndian.Uint64(h[0:8])
		n := int64(binary.LittleEndian.Uint32(h[8:12]))
		sum := binary.LittleEndian.Uint32(h[12:16])
		if n > maxRecordLen || off+frameHeader+n > int64(len(buf)) {
			break // torn tail: length field exceeds what reached disk
		}
		payload := buf[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, crcTable) != sum {
			break // torn tail: payload bytes incomplete or corrupt
		}
		if lsn <= last {
			break // out-of-order frame: corrupt
		}
		last = lsn
		off += frameHeader + n
		if lsn > after {
			out = append(out, Record{LSN: lsn, Payload: payload, File: path, End: off})
		}
	}
	return out, off, nil
}
