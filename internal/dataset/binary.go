package dataset

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
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
//	type, numChoices, numTasks, numWorkers
//	answer count, then per answer: task, worker, value bits
//	truth count, then per truth (ascending task): task, value bits
const binaryMagic = "TIDS\x01"

// minAnswerEnc / minTruthEnc are the smallest possible encodings of one
// answer / truth record; decode caps the declared counts by the
// remaining payload so corrupt counts cannot drive huge allocations.
const (
	minAnswerEnc = 1 + 1 + 8
	minTruthEnc  = 1 + 8
)

// MarshalBinary serializes the dataset in the stable binary format.
func (d *Dataset) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, len(binaryMagic)+len(d.Name)+16+len(d.Answers)*12+len(d.Truth)*10)
	buf = append(buf, binaryMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(d.Name)))
	buf = append(buf, d.Name...)
	buf = binary.AppendUvarint(buf, uint64(d.Type))
	buf = binary.AppendUvarint(buf, uint64(d.NumChoices))
	buf = binary.AppendUvarint(buf, uint64(d.NumTasks))
	buf = binary.AppendUvarint(buf, uint64(d.NumWorkers))
	buf = binary.AppendUvarint(buf, uint64(len(d.Answers)))
	for _, a := range d.Answers {
		buf = binary.AppendUvarint(buf, uint64(a.Task))
		buf = binary.AppendUvarint(buf, uint64(a.Worker))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Value))
	}
	ids := make([]int, 0, len(d.Truth))
	for t := range d.Truth {
		ids = append(ids, t)
	}
	sort.Ints(ids)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, t := range ids {
		buf = binary.AppendUvarint(buf, uint64(t))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.Truth[t]))
	}
	return buf, nil
}

// UnmarshalDataset decodes a dataset marshaled with MarshalBinary and
// rebuilds (and thereby re-validates) its answer index.
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
	d.NumTasks = int(c.uvarint())
	d.NumWorkers = int(c.uvarint())
	// Insanity guard: Build allocates per-task/per-worker CSR offsets, so
	// refuse dims no real dataset reaches before attempting that (the
	// same cap stream.MaxDim enforces at ingest time).
	const maxBinaryDim = 1 << 26
	if uint64(d.NumTasks) > maxBinaryDim || uint64(d.NumWorkers) > maxBinaryDim || d.NumChoices > 1<<24 {
		return nil, fmt.Errorf("dataset: implausible dims in binary encoding (%d tasks, %d workers, %d choices)",
			d.NumTasks, d.NumWorkers, d.NumChoices)
	}
	nAns := c.uvarint()
	if nAns > uint64(c.remaining()/minAnswerEnc) {
		return nil, fmt.Errorf("dataset: answer count %d exceeds payload", nAns)
	}
	d.Answers = make([]Answer, nAns)
	for i := range d.Answers {
		d.Answers[i] = Answer{
			Task:   int(c.uvarint()),
			Worker: int(c.uvarint()),
			Value:  math.Float64frombits(c.u64()),
		}
	}
	nTruth := c.uvarint()
	if nTruth > uint64(c.remaining()/minTruthEnc) {
		return nil, fmt.Errorf("dataset: truth count %d exceeds payload", nTruth)
	}
	d.Truth = make(map[int]float64, nTruth)
	for i := uint64(0); i < nTruth; i++ {
		t := int(c.uvarint())
		d.Truth[t] = math.Float64frombits(c.u64())
	}
	if c.err {
		return nil, fmt.Errorf("dataset: truncated binary encoding")
	}
	if c.remaining() != 0 {
		return nil, fmt.Errorf("dataset: %d trailing bytes after binary encoding", c.remaining())
	}
	if err := d.Build(); err != nil {
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
