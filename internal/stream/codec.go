package stream

// Batch wire codec, shared between the write-ahead log and the batched
// HTTP ingest endpoint.
//
// A batch payload encodes one Batch:
//
//	uvarint NumTasks, uvarint NumWorkers
//	uvarint answer count, per answer:
//	  uvarint task, uvarint worker, 8-byte LE value bits
//	uvarint truth count, per truth (ascending task id):
//	  uvarint task, 8-byte LE value bits
//
// The WAL prefixes each payload with the store version the batch
// produced; the HTTP batch stream carries raw payloads (clients do not
// know versions) framed as:
//
//	8-byte magic "TIBAT\x01\r\n"
//	frames, each: uint32 LE payload length
//	              uint32 LE CRC-32 (IEEE) of the payload
//	              payload
//
// ending at clean EOF after a complete frame. The framing is the WAL's
// own record framing, so a proxy or client library implementing one
// implements both.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sort"

	"truthinference/internal/dataset"
)

// BatchStreamMagic opens every batched-ingest request body.
const BatchStreamMagic = "TIBAT\x01\r\n"

// MaxFramePayload bounds one frame's payload (64 MiB ≈ 2.7M answers),
// matching the WAL's per-record cap so any batch accepted over HTTP is
// guaranteed to be recordable.
const MaxFramePayload = 1 << 26

// ErrFrameTooLarge reports a frame whose declared payload length
// exceeds MaxFramePayload.
var ErrFrameTooLarge = errors.New("stream: frame payload exceeds cap")

// AppendBatchPayload appends the batch-payload encoding of b to buf.
func AppendBatchPayload(buf []byte, b Batch) []byte {
	buf = binary.AppendUvarint(buf, uint64(max(b.NumTasks, 0)))
	buf = binary.AppendUvarint(buf, uint64(max(b.NumWorkers, 0)))
	buf = binary.AppendUvarint(buf, uint64(len(b.Answers)))
	for _, a := range b.Answers {
		buf = binary.AppendUvarint(buf, uint64(a.Task))
		buf = binary.AppendUvarint(buf, uint64(a.Worker))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Value))
	}
	ids := make([]int, 0, len(b.Truth))
	for t := range b.Truth {
		ids = append(ids, t)
	}
	sort.Ints(ids)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, t := range ids {
		buf = binary.AppendUvarint(buf, uint64(t))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(b.Truth[t]))
	}
	return buf
}

// DecodeBatchPayload decodes one batch payload. It enforces wire shape
// only; semantic validation (label ranges, finite numerics, dim caps)
// happens in Store.Ingest. Ids travel as their two's-complement bits, so
// a negative id decodes as sent and is rejected there; dims must fit in
// an int, so whatever decodes re-encodes to the same batch.
func DecodeBatchPayload(payload []byte) (Batch, error) {
	var b Batch
	c := cursor{data: payload}
	tasks, workers := c.uvarint(), c.uvarint()
	if tasks > math.MaxInt || workers > math.MaxInt {
		return Batch{}, fmt.Errorf("dims %d/%d beyond int range", tasks, workers)
	}
	b.NumTasks, b.NumWorkers = int(tasks), int(workers)
	nAns := c.uvarint()
	if nAns > uint64(c.remaining()/10) { // min 10 bytes per answer
		return Batch{}, fmt.Errorf("answer count %d exceeds payload", nAns)
	}
	if nAns > 0 {
		b.Answers = make([]dataset.Answer, nAns)
		for i := range b.Answers {
			b.Answers[i] = dataset.Answer{
				Task:   int(c.uvarint()),
				Worker: int(c.uvarint()),
				Value:  math.Float64frombits(c.u64()),
			}
		}
	}
	nTruth := c.uvarint()
	if nTruth > uint64(c.remaining()/9) { // min 9 bytes per truth
		return Batch{}, fmt.Errorf("truth count %d exceeds payload", nTruth)
	}
	if nTruth > 0 {
		b.Truth = make(map[int]float64, nTruth)
		for i := uint64(0); i < nTruth; i++ {
			t := int(c.uvarint())
			b.Truth[t] = math.Float64frombits(c.u64())
		}
	}
	if c.err {
		return Batch{}, errors.New("truncated payload")
	}
	if c.remaining() != 0 {
		return Batch{}, fmt.Errorf("%d trailing payload bytes", c.remaining())
	}
	return b, nil
}

// AppendBatchFrame appends one CRC-framed batch to buf (no magic — the
// caller writes BatchStreamMagic once per stream). It errors if the
// encoded payload exceeds MaxFramePayload.
func AppendBatchFrame(buf []byte, b Batch) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	buf = AppendBatchPayload(buf, b)
	payload := buf[start+8:]
	if len(payload) > MaxFramePayload {
		return buf[:start], fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf, nil
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
	hdr := make([]byte, 8)
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			if err == io.EOF {
				return frames, nil
			}
			if err == io.ErrUnexpectedEOF {
				return frames, errors.New("stream: torn frame header")
			}
			return frames, err
		}
		plen := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if plen > MaxFramePayload {
			return frames, fmt.Errorf("%w: declared length %d", ErrFrameTooLarge, plen)
		}
		if payload, err = readPayload(r, payload, int(plen)); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return frames, errors.New("stream: torn frame payload")
			}
			return frames, err
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return frames, errors.New("stream: frame CRC mismatch")
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

// cursor is a bounds-checked sequential reader over a payload.
type cursor struct {
	data []byte
	off  int
	err  bool
}

func (c *cursor) remaining() int { return len(c.data) - c.off }

func (c *cursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		c.err = true
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) u64() uint64 {
	if c.remaining() < 8 {
		c.err = true
		return 0
	}
	v := binary.LittleEndian.Uint64(c.data[c.off:])
	c.off += 8
	return v
}
