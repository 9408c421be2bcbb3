// Package wal is the durability layer under the streaming subsystem: an
// append-only, CRC32-framed, length-prefixed write-ahead log of ingested
// batches, periodic compacted snapshots of the whole store (the stable
// binary dataset encoding plus the store version), and a recovery path
// that replays the log on top of the latest snapshot to a bit-identical
// store — same version, same dims, same answers in the same global
// order.
//
// # File formats
//
// <base>.wal — the log:
//
//	8-byte magic "TIWAL\x01\r\n"
//	records, each one frame (stream.AppendFrame):
//	  uint32 LE payload length
//	  uint32 LE CRC-32 (IEEE) of the payload
//	  payload: uint64 LE store version after applying this batch,
//	           then the batch payload (stream.AppendBatchPayload)
//
// <base>.snap — the compacted snapshot, written atomically
// (tmp + fsync + rename + directory sync):
//
//	8-byte magic "TISNP\x02\r\n"
//	uint64 LE store version
//	uint32 LE CRC-32 (IEEE) of the version field and the dataset bytes
//	dataset.MarshalBinary bytes
//
// A v1 snapshot (magic "TISNP\x01\r\n") has the same layout with a CRC
// over the dataset bytes alone. ReadSnapshot still reads it; the next
// snapshot replaces it with a v2 one.
//
// # Recovery contract
//
// Every record carries the store version its batch produced, so replay
// is idempotent: records at or below the snapshot's version are skipped,
// and the next record must be exactly snapshot version+1 — a gap means
// the log does not belong to the snapshot (e.g. a mismatched backup
// restore), which Open refuses with a hard error rather than destroying
// intact records. A truncated or corrupted tail stops replay at the
// last intact record — recovery returns the consistent prefix plus a
// *CorruptError describing the damage, never a torn store. Open
// truncates the damaged tail before appending so the log stays readable
// (or rewrites the log wholesale when the magic itself is damaged). A
// failed read is not damage: Replay returns it as it is, and Open
// refuses to boot, as it does for a version gap.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"truthinference/internal/dataset"
	"truthinference/internal/stream"
)

const (
	logMagic    = "TIWAL\x01\r\n"
	snapMagic   = "TISNP\x02\r\n"
	snapMagicV1 = "TISNP\x01\r\n"
)

// CorruptError reports damaged log or snapshot bytes: where the damage
// starts and what was wrong. Replay and recovery stop at the last intact
// record; the state built from the prefix before Offset is consistent.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: %s corrupt at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Log is an open write-ahead log. Append writes one framed record per
// committed batch (buffered only by the OS — a process crash loses
// nothing already Appended); Sync makes the log durable against machine
// crashes too.
type Log struct {
	f logFile
}

// logFile is the file a Log appends to: an *os.File, or in tests one
// that injects write and fsync faults.
type logFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// Create replaces (or creates) the log at path with an empty one holding
// only the magic, through the same atomic create as WriteFileAtomic.
func Create(path string) (*Log, error) {
	f, err := createAtomic(path, []byte(logMagic))
	if err != nil {
		return nil, err
	}
	return &Log{f: f}, nil
}

// openAppend opens an existing log for appending at offset off (the end
// of its intact prefix), truncating anything after it.
func openAppend(path string, off int64) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f}, nil
}

// Append writes one framed record: the batch plus the store version it
// produced. The frame and payload go out in a single write, so a crash
// mid-append leaves at most one torn record at the tail — exactly what
// replay tolerates. A record past stream.MaxFramePayload is refused up
// front (replay would read it as damage); Store.Ingest's MaxBatch cap
// keeps every admissible batch well under it.
func (l *Log) Append(version uint64, b stream.Batch) error {
	rec, err := appendRecord(make([]byte, 0, 24+len(b.Answers)*12+len(b.Truth)*10), version, b)
	if err != nil {
		return err
	}
	_, err = l.f.Write(rec)
	return err
}

// appendRecord appends one record frame to buf: the version, then the
// shared batch-payload encoding (the one the batched HTTP ingest
// endpoint frames on the wire).
func appendRecord(buf []byte, version uint64, b stream.Batch) ([]byte, error) {
	return stream.AppendFrame(buf, func(buf []byte) []byte {
		return stream.AppendBatchPayload(binary.LittleEndian.AppendUint64(buf, version), b)
	})
}

// Sync flushes the log to stable storage.
func (l *Log) Sync() error { return l.f.Sync() }

// Close syncs and closes the log file.
func (l *Log) Close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Replay streams the log at path and calls fn for every intact record
// in order, holding O(stream.MaxFramePayload) memory regardless of log
// size (a crashed daemon running without automatic compaction can leave
// an arbitrarily long log behind). It returns the byte offset of the end
// of the intact prefix and the number of records delivered. A truncated
// or corrupted tail stops the scan and is reported as a *CorruptError;
// an error reading the file, or one returned by fn, stops the scan and
// is returned as-is (with the offset still pointing before the record
// that failed).
func Replay(path string, fn func(version uint64, b stream.Batch) error) (goodOffset int64, records int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	return replay(bufio.NewReaderSize(f, 1<<16), path, fn)
}

// replay is Replay over a reader; path names the log in a *CorruptError.
func replay(r io.Reader, path string, fn func(version uint64, b stream.Batch) error) (off int64, records int, err error) {
	magic := make([]byte, len(logMagic))
	if _, err := io.ReadFull(r, magic); err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return 0, 0, err
	}
	if string(magic) != logMagic {
		return 0, 0, &CorruptError{Path: path, Offset: 0, Reason: "bad log magic"}
	}
	off = int64(len(logMagic))
	var payload []byte
	for {
		payload, err = stream.ReadFrame(r, payload)
		var fe *stream.FrameError
		switch {
		case err == io.EOF:
			return off, records, nil
		case errors.As(err, &fe):
			return off, records, &CorruptError{Path: path, Offset: off, Reason: fe.Reason}
		case err != nil:
			return off, records, err
		}
		if len(payload) < 8 {
			return off, records, &CorruptError{Path: path, Offset: off, Reason: "payload shorter than version field"}
		}
		// Semantic validation (label ranges, finite numerics) happens in
		// Store.Ingest during replay.
		b, derr := stream.DecodeBatchPayload(payload[8:])
		if derr != nil {
			return off, records, &CorruptError{Path: path, Offset: off, Reason: derr.Error()}
		}
		if err := fn(binary.LittleEndian.Uint64(payload), b); err != nil {
			return off, records, err
		}
		off += int64(8 + len(payload)) // the frame header and payload
		records++
	}
}

// WriteSnapshot atomically writes a compacted snapshot of d at the given
// store version through WriteFileAtomic, so a crash mid-write never
// damages an existing snapshot. d needs no answer index.
func WriteSnapshot(path string, d *dataset.Dataset, version uint64) error {
	buf, err := encodeSnapshot(d, version)
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, buf)
}

// encodeSnapshot returns the snapshot file's bytes for d at version:
// the magic in bytes [0, 8), the version in [8, 16), the CRC in [16, 20)
// and the dataset encoding from byte 20 on.
func encodeSnapshot(d *dataset.Dataset, version uint64) ([]byte, error) {
	buf := binary.LittleEndian.AppendUint64([]byte(snapMagic), version)
	buf, err := d.AppendBinary(append(buf, 0, 0, 0, 0)) // CRC placeholder
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(buf[16:], snapshotCRC(buf))
	return buf, nil
}

// snapshotCRC is the checksum a v2 snapshot file carries: the CRC-32
// (IEEE) of its version field followed by its dataset bytes.
func snapshotCRC(file []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(file[8:16]), crc32.IEEETable, file[20:])
}

// WriteFileAtomic replaces path with data through createAtomic, so a
// crash leaves either the old file or the new one, never a torn one,
// then closes the new file; an error from that close comes after the
// replacement.
func WriteFileAtomic(path string, data []byte) error {
	f, err := createAtomic(path, data)
	if err != nil {
		return err
	}
	return f.Close()
}

// createAtomic replaces path with a file holding data and returns it
// open for appending: the bytes go to path+".tmp", are fsynced, and
// replace path in one rename, followed by a best-effort sync of the
// directory so the rename itself is durable. A crash leaves either the
// old file or the new one, never a torn one. The rename is the last step
// that can fail; on any error the temp file is removed and path is
// untouched.
func createAtomic(path string, data []byte) (*os.File, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err = f.Write(data); err == nil {
		if err = f.Sync(); err == nil {
			err = os.Rename(tmp, path)
		}
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	return f, nil
}

// ReadSnapshot loads a snapshot written by WriteSnapshot (layout at
// encodeSnapshot), or a v1 snapshot, verifying the magic and the CRC
// before decoding.
func ReadSnapshot(path string) (*dataset.Dataset, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(data) < 20 {
		return nil, 0, &CorruptError{Path: path, Offset: 0, Reason: "bad snapshot magic"}
	}
	var crc uint32
	switch string(data[:8]) {
	case snapMagic:
		crc = snapshotCRC(data)
	case snapMagicV1:
		crc = crc32.ChecksumIEEE(data[20:])
	default:
		return nil, 0, &CorruptError{Path: path, Offset: 0, Reason: "bad snapshot magic"}
	}
	if binary.LittleEndian.Uint32(data[16:20]) != crc {
		return nil, 0, &CorruptError{Path: path, Offset: 8, Reason: "snapshot CRC mismatch"}
	}
	d, err := dataset.UnmarshalDataset(data[20:])
	if err != nil {
		return nil, 0, &CorruptError{Path: path, Offset: 20, Reason: err.Error()}
	}
	return d, binary.LittleEndian.Uint64(data[8:16]), nil
}
