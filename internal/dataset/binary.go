package dataset

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Stable binary encoding of a dataset, used by the durability layer
// (internal/stream/wal) for compacted snapshots. The encoding is
// deterministic — the same dataset always marshals to the same bytes
// (truths are written sorted by task id) — so recovery equivalence can
// be checked bytewise. Layout (all integers unsigned varints, floats
// 8-byte little-endian IEEE-754 bits):
//
//	magic "TIDS\x01"
//	name length, name bytes
//	type, numChoices
//	the answer section (AppendSection):
//	  numTasks, numWorkers
//	  answer count, then per answer: task, worker, value bits
//	  truth count, then per truth (ascending task): task, value bits
//
// The answer section alone is the stream package's batch payload.
const binaryMagic = "TIDS\x01"

const (
	// minAnswerEnc / minTruthEnc are the smallest possible encodings of
	// one answer / truth record; decode caps the declared counts by the
	// remaining payload so corrupt counts cannot drive huge allocations.
	minAnswerEnc = 1 + 1 + 8
	minTruthEnc  = 1 + 8
	// maxBinaryDim refuses dims no real dataset reaches before Build
	// allocates per-task and per-worker index offsets for them (the same
	// cap stream.MaxDim enforces at ingest time).
	maxBinaryDim = 1 << 26
)

// MarshalBinary serializes the dataset in the stable binary format.
func (d *Dataset) MarshalBinary() ([]byte, error) { return d.AppendBinary(nil) }

// AppendBinary appends the stable binary encoding of d to buf. It reads
// no answer index, so it encodes a dataset that was never built.
func (d *Dataset) AppendBinary(buf []byte) ([]byte, error) {
	buf = slices.Grow(buf, len(binaryMagic)+len(d.Name)+16+len(d.Answers)*12+len(d.Truth)*10)
	buf = append(buf, binaryMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(d.Name)))
	buf = append(buf, d.Name...)
	buf = binary.AppendUvarint(buf, uint64(d.Type))
	buf = binary.AppendUvarint(buf, uint64(d.NumChoices))
	return AppendSection(buf, d.NumTasks, d.NumWorkers, d.Answers, d.Truth), nil
}

// AppendSection appends the answer section of the binary encoding to
// buf: the dims (a negative one as 0), the answers in order and the
// truths by ascending task id.
func AppendSection(buf []byte, numTasks, numWorkers int, answers []Answer, truth map[int]float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(max(numTasks, 0)))
	buf = binary.AppendUvarint(buf, uint64(max(numWorkers, 0)))
	buf = binary.AppendUvarint(buf, uint64(len(answers)))
	for _, a := range answers {
		buf = binary.AppendUvarint(buf, uint64(a.Task))
		buf = binary.AppendUvarint(buf, uint64(a.Worker))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Value))
	}
	ids := make([]int, 0, len(truth))
	for t := range truth {
		ids = append(ids, t)
	}
	slices.Sort(ids)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, t := range ids {
		buf = binary.AppendUvarint(buf, uint64(t))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(truth[t]))
	}
	return buf
}

// DecodeSection decodes an answer section that fills data exactly. It
// refuses dims above maxDim before reading on, and counts the remaining
// bytes cannot hold before allocating; an empty answer list or truth
// map decodes as nil. Ids decode from their two's-complement bits, so
// AppendSection re-encodes whatever decodes to the same bytes.
func DecodeSection(data []byte, maxDim uint64) (numTasks, numWorkers int, answers []Answer, truth map[int]float64, err error) {
	c := cursor{data: data}
	tasks, workers := c.uvarint(), c.uvarint()
	if tasks > maxDim || workers > maxDim {
		return 0, 0, nil, nil, fmt.Errorf("implausible dims %d/%d beyond the %d cap", tasks, workers, maxDim)
	}
	nAns := c.uvarint()
	if nAns > uint64(c.remaining()/minAnswerEnc) {
		return 0, 0, nil, nil, fmt.Errorf("answer count %d exceeds payload", nAns)
	}
	if nAns > 0 {
		answers = make([]Answer, nAns)
		for i := range answers {
			answers[i] = Answer{Task: int(c.uvarint()), Worker: int(c.uvarint()), Value: math.Float64frombits(c.u64())}
		}
	}
	nTruth := c.uvarint()
	if nTruth > uint64(c.remaining()/minTruthEnc) {
		return 0, 0, nil, nil, fmt.Errorf("truth count %d exceeds payload", nTruth)
	}
	if nTruth > 0 {
		truth = make(map[int]float64, nTruth)
		for range nTruth {
			t := int(c.uvarint())
			truth[t] = math.Float64frombits(c.u64())
		}
	}
	if c.err {
		return 0, 0, nil, nil, fmt.Errorf("truncated encoding")
	}
	if c.remaining() != 0 {
		return 0, 0, nil, nil, fmt.Errorf("%d trailing bytes", c.remaining())
	}
	return int(tasks), int(workers), answers, truth, nil
}

// UnmarshalDataset decodes a dataset marshaled with MarshalBinary and
// validates it by Build's rules. It builds no answer index: call Build
// before reading one.
func UnmarshalDataset(data []byte) (*Dataset, error) {
	c := cursor{data: data}
	if string(c.take(len(binaryMagic))) != binaryMagic {
		return nil, fmt.Errorf("dataset: bad binary magic")
	}
	nameLen := c.uvarint()
	if nameLen > uint64(c.remaining()) {
		return nil, fmt.Errorf("dataset: name length %d exceeds payload", nameLen)
	}
	d := &Dataset{Name: string(c.take(int(nameLen)))}
	d.Type = TaskType(c.uvarint())
	d.NumChoices = int(c.uvarint())
	if d.NumChoices > 1<<24 {
		return nil, fmt.Errorf("dataset: implausible dims in binary encoding (%d choices)", d.NumChoices)
	}
	var err error
	// A header the cursor could not read leaves those bytes for the
	// section, which cannot read them either.
	if d.NumTasks, d.NumWorkers, d.Answers, d.Truth, err = DecodeSection(data[c.off:], maxBinaryDim); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// cursor is a bounds-checked sequential reader over a byte slice; after
// any under-run every further read returns zeros and err is set, so
// decode loops stay simple and never panic on truncated input.
type cursor struct {
	data []byte
	off  int
	err  bool
}

func (c *cursor) remaining() int { return len(c.data) - c.off }

func (c *cursor) take(n int) []byte {
	if n < 0 || c.remaining() < n {
		c.err = true
		return nil
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b
}

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
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
