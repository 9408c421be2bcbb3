package stream

// Frame codec and batch wire codec, shared by the write-ahead log
// (internal/stream/wal) and the batched HTTP ingest endpoint.
//
// A frame is
//
//	uint32 LE payload length (at most MaxFramePayload)
//	uint32 LE CRC-32 (IEEE) of the payload
//	payload
//
// A batch payload encodes one Batch as the answer section of the
// dataset encoding (dataset.AppendSection):
//
//	uvarint NumTasks, uvarint NumWorkers
//	uvarint answer count, per answer:
//	  uvarint task, uvarint worker, 8-byte LE value bits
//	uvarint truth count, per truth (ascending task id):
//	  uvarint task, 8-byte LE value bits
//
// A WAL record is a frame whose payload is the store version the batch
// produced (uint64 LE) followed by the batch payload. An HTTP batch
// stream carries raw batch payloads (clients do not know versions):
//
//	8-byte magic "TIBAT\x01\r\n"
//	one frame per batch
//
// ending at clean EOF after a complete frame.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"truthinference/internal/dataset"
)

// BatchStreamMagic opens every batched-ingest request body.
const BatchStreamMagic = "TIBAT\x01\r\n"

// MaxFramePayload bounds one frame's payload (64 MiB ≈ 2.7M answers), so
// any batch accepted over HTTP is guaranteed to be recordable in the WAL.
const MaxFramePayload = 1 << 26

// ErrFrameTooLarge reports a frame whose payload exceeds MaxFramePayload.
var ErrFrameTooLarge = errors.New("stream: frame payload exceeds cap")

// FrameError reports damage ReadFrame found in the bytes themselves: a
// torn header or payload, a declared length beyond MaxFramePayload (Err
// is then ErrFrameTooLarge), or a CRC mismatch.
type FrameError struct {
	Reason string
	Err    error
}

func (e *FrameError) Error() string { return "stream: " + e.Reason }
func (e *FrameError) Unwrap() error { return e.Err }

// AppendFrame appends one frame to buf whose payload is what encode
// appends to the slice it is given. If the payload exceeds
// MaxFramePayload it returns buf unchanged and an error wrapping
// ErrFrameTooLarge.
func AppendFrame(buf []byte, encode func([]byte) []byte) ([]byte, error) {
	start := len(buf)
	buf = encode(append(buf, 0, 0, 0, 0, 0, 0, 0, 0)) // header placeholder
	payload := buf[start+8:]
	if len(payload) > MaxFramePayload {
		return buf[:start], fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf, nil
}

// ReadFrame reads one frame from r and returns its payload, read into
// buf's storage when it has the capacity. It returns io.EOF at a clean
// end between frames, a *FrameError for damaged bytes, and any other
// error from r as it is: a failed read is not damage.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return buf, &FrameError{Reason: "torn frame header"}
		}
		return buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > MaxFramePayload {
		return buf, &FrameError{Reason: fmt.Sprintf("frame payload exceeds cap: declared length %d", n), Err: ErrFrameTooLarge}
	}
	payload, err := readPayload(r, buf, int(n))
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return payload, &FrameError{Reason: "torn frame payload"}
	}
	if err != nil {
		return payload, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return payload, &FrameError{Reason: "frame CRC mismatch"}
	}
	return payload, nil
}

// payloadChunk bounds how far readPayload grows its buffer ahead of the
// bytes that have arrived.
const payloadChunk = 64 << 10

// readPayload reads exactly n bytes from r into buf's storage and
// returns them. buf is reused when it has the capacity; otherwise it
// grows as the bytes arrive, at most payloadChunk past them, so a frame
// header that declares a large payload and then ends makes no large
// allocation.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), payloadChunk)
		buf = slices.Grow(buf, step)
		m, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// AppendBatchPayload appends the batch-payload encoding of b to buf.
func AppendBatchPayload(buf []byte, b Batch) []byte {
	return dataset.AppendSection(buf, b.NumTasks, b.NumWorkers, b.Answers, b.Truth)
}

// DecodeBatchPayload decodes one batch payload. It enforces wire shape
// only; semantic validation (label ranges, finite numerics, dim caps)
// happens in Store.Ingest. Ids travel as their two's-complement bits, so
// a negative id decodes as sent and is rejected there; dims must fit in
// an int, so whatever decodes re-encodes to the same batch.
func DecodeBatchPayload(payload []byte) (b Batch, err error) {
	b.NumTasks, b.NumWorkers, b.Answers, b.Truth, err = dataset.DecodeSection(payload, math.MaxInt)
	return b, err
}

// AppendBatchFrame appends one CRC-framed batch to buf (no magic — the
// caller writes BatchStreamMagic once per stream). It errors if the
// encoded payload exceeds MaxFramePayload.
func AppendBatchFrame(buf []byte, b Batch) ([]byte, error) {
	return AppendFrame(buf, func(buf []byte) []byte { return AppendBatchPayload(buf, b) })
}

// EncodeBatchStream encodes a complete batch-stream body (magic plus
// one frame per batch) — the client half of the batched ingest wire.
func EncodeBatchStream(batches []Batch) ([]byte, error) {
	buf := []byte(BatchStreamMagic)
	var err error
	for _, b := range batches {
		if buf, err = AppendBatchFrame(buf, b); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// ReadBatchStream reads a batch stream from r, calling fn once per
// intact frame in order. Unlike WAL replay, a damaged frame is not a
// recoverable tail: the stream arrived over a reliable transport, so
// any CRC mismatch, torn frame, or trailing garbage fails the whole
// read. Read errors from r (e.g. a body-size cap) are returned as-is,
// so callers can map them onto transport-specific failures.
func ReadBatchStream(r io.Reader, fn func(b Batch) error) (frames int, err error) {
	magic := make([]byte, len(BatchStreamMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, errors.New("stream: short batch stream: missing magic")
		}
		return 0, err
	}
	if string(magic) != BatchStreamMagic {
		return 0, errors.New("stream: bad batch stream magic")
	}
	var payload []byte
	for {
		if payload, err = ReadFrame(r, payload); err != nil {
			if err == io.EOF {
				return frames, nil
			}
			return frames, err
		}
		b, derr := DecodeBatchPayload(payload)
		if derr != nil {
			return frames, fmt.Errorf("stream: frame %d: %w", frames, derr)
		}
		if err := fn(b); err != nil {
			return frames, err
		}
		frames++
	}
}
