package wal

import (
	"encoding/binary"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"testing"
	"testing/fstest"

	"daisy/internal/vfs"
)

// frame encodes one well-formed record, for seeding the fuzzer past the CRC.
func frame(lsn uint64, payload string) []byte {
	b := make([]byte, frameHeader, frameHeader+len(payload))
	binary.LittleEndian.PutUint64(b[0:8], lsn)
	binary.LittleEndian.PutUint32(b[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[12:16], crc32.Checksum([]byte(payload), crcTable))
	return append(b, payload...)
}

func cat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// memFS serves a log directory from memory. RecordsFS only lists, reads and
// stats; any other call panics on the nil embedded FS.
type memFS struct {
	vfs.FS
	m fstest.MapFS
}

func (f memFS) ReadDir(name string) ([]fs.DirEntry, error) { return f.m.ReadDir(name) }
func (f memFS) ReadFile(name string) ([]byte, error)       { return f.m.ReadFile(name) }
func (f memFS) Stat(name string) (fs.FileInfo, error)      { return f.m.Stat(name) }

// FuzzRecords writes arbitrary bytes as a log directory — one file, or two
// when split falls inside data — and reads it back: the reader must never
// panic, and whatever it accepts must come back with strictly increasing
// LSNs above the requested floor.
func FuzzRecords(f *testing.F) {
	const dir = "log"
	f.Add([]byte{}, uint16(0), uint64(0))
	f.Add(cat(frame(1, "a"), frame(2, "bb"), frame(3, "")), uint16(0), uint64(0))
	f.Add(cat(frame(1, "a"), frame(2, "bb"), frame(3, "ccc")), uint16(0), uint64(2))
	f.Add(cat(frame(5, "x"), frame(3, "y"), frame(9, "z")), uint16(0), uint64(0)) // out of order
	f.Add(cat(frame(2, "x"), frame(2, "x")), uint16(0), uint64(0))                // duplicate
	f.Add(cat(frame(2, "x"), frame(2, "x")), uint16(frameHeader+1), uint64(0))    // duplicate across files
	f.Add(cat(frame(1, "a"), frame(2, "b")), uint16(frameHeader+1), uint64(0))    // rotated
	f.Add(cat(frame(0, "zero"), frame(1, "one")), uint16(0), uint64(0))
	f.Add(cat(frame(1, "whole"), frame(2, "torn")[:frameHeader+2]), uint16(0), uint64(0))
	f.Add(cat(frame(1, "a"), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}), uint16(0), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, split uint16, after uint64) {
		files := fstest.MapFS{filepath.Join(dir, logFileName(1)): {Data: data}}
		if s := int(split); s > 0 && s < len(data) {
			files[filepath.Join(dir, logFileName(1))].Data = data[:s]
			files[filepath.Join(dir, logFileName(2))] = &fstest.MapFile{Data: data[s:]}
		}
		recs, err := RecordsFS(memFS{m: files}, dir, after)
		if err != nil {
			return // corruption in a rotated file is reported, not read past
		}
		prev := after
		for i, r := range recs {
			if r.LSN <= prev {
				t.Fatalf("record %d: LSN %d does not exceed %d", i, r.LSN, prev)
			}
			prev = r.LSN
		}
	})
}
