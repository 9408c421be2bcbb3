package stream

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"truthinference/internal/dataset"
)

// FuzzStoreIngest feeds the store batches derived from arbitrary
// bytes — valid ones, out-of-range ids, fractional and non-finite
// values, negative dims — and asserts the ingest invariants the serving
// and durability layers build on:
//
//   - Ingest never panics;
//   - a rejected batch never tears a partial delta (version, dims and
//     answer count are all unchanged);
//   - an accepted batch bumps the version by exactly 1 and appends at
//     the previous answer count;
//   - the final store always snapshots to a structurally valid dataset
//     whose answer count matches the reported dims;
//   - a running snapshot, extended by snapshotSince after every batch,
//     accepted or rejected, equals a full Snapshot field for field, CSR
//     included — so hostile, truth-only and dims-only batches all reach
//     the epoch path's extend.
//
// The byte→batch mapping is generative (every input produces a batch),
// so the fuzzer explores the validator and the commit path rather
// than a decoder's error returns.
func FuzzStoreIngest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0xFF, 0x00, 0x41, 0x80, 0x01, 0x7F, 0xFE, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70})
	// A long input drives many batches through one store.
	long := make([]byte, 256)
	for i := range long {
		long[i] = byte(i * 37)
	}
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		store, err := NewStoreN("fuzz", dataset.SingleChoice, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		running, _ := store.Snapshot()
		r := fuzzReader{data: data}
		for batches := 0; batches < 16 && !r.done(); batches++ {
			b := nextFuzzBatch(&r)

			beforeVersion := store.Version()
			beforeTasks, beforeWorkers, beforeAnswers := store.Dims()
			version, firstNew, err := store.Ingest(b)
			if err != nil {
				v := store.Version()
				tasks, workers, answers := store.Dims()
				if v != beforeVersion || tasks != beforeTasks || workers != beforeWorkers || answers != beforeAnswers {
					t.Fatalf("rejected batch tore the store: version %d→%d, dims %d/%d/%d → %d/%d/%d",
						beforeVersion, v, beforeTasks, beforeWorkers, beforeAnswers, tasks, workers, answers)
				}
			} else {
				if version != beforeVersion+1 {
					t.Fatalf("accepted batch moved version %d → %d, want +1", beforeVersion, version)
				}
				if firstNew != beforeAnswers {
					t.Fatalf("firstNew = %d, want previous answer count %d", firstNew, beforeAnswers)
				}
			}

			var runningVersion uint64
			running, runningVersion = store.snapshotSince(running)
			full, fullVersion := store.Snapshot()
			if runningVersion != fullVersion || !reflect.DeepEqual(running, full) {
				t.Fatalf("batch %d: the snapshot extended since the last batch differs from a full snapshot", batches)
			}
		}

		// Snapshot re-validates the whole store through dataset.New: a
		// torn commit would surface as a panic or count mismatch here.
		d, version := store.Snapshot()
		if version != store.Version() {
			t.Fatalf("quiescent snapshot at version %d, store at %d", version, store.Version())
		}
		_, _, answers := store.Dims()
		if len(d.Answers) != answers {
			t.Fatalf("snapshot has %d answers, dims say %d", len(d.Answers), answers)
		}
	})
}

// fuzzReader doles out bytes; exhausted input reads zeros so every
// prefix still decodes into some batch sequence.
type fuzzReader struct {
	data []byte
	off  int
}

func (r *fuzzReader) done() bool { return r.off >= len(r.data) }

func (r *fuzzReader) byte() byte {
	if r.off >= len(r.data) {
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

// nextFuzzBatch derives one batch: mostly plausible ids with occasional
// hostile ones (negative, huge, fractional/non-finite values).
func nextFuzzBatch(r *fuzzReader) Batch {
	var b Batch
	mode := r.byte()
	if mode&1 != 0 { // declare dims, sometimes negative
		b.NumTasks = int(int8(r.byte())) * 4
		b.NumWorkers = int(int8(r.byte())) * 2
	}
	n := int(r.byte() % 8)
	for i := 0; i < n; i++ {
		a := dataset.Answer{
			Task:   int(int8(r.byte())),
			Worker: int(int8(r.byte())),
			Value:  float64(r.byte() % 5), // labels 0..4 against ℓ=3: some invalid
		}
		switch r.byte() % 16 {
		case 0:
			a.Value = math.NaN()
		case 1:
			a.Value = math.Inf(1)
		case 2:
			a.Value += 0.5 // fractional label
		case 3:
			a.Task = int(binary.LittleEndian.Uint16([]byte{r.byte(), r.byte()})) // large id: grows dims across many chunks
		}
		b.Answers = append(b.Answers, a)
	}
	if mode&2 != 0 {
		b.Truth = map[int]float64{}
		for i := byte(0); i < r.byte()%3; i++ {
			b.Truth[int(int8(r.byte()))] = float64(r.byte()%4) + float64(r.byte()%2)/2
		}
	}
	return b
}

// FuzzReadBatchStream feeds the batched-ingest decoder (the body of
// POST .../ingest-batch) arbitrary bytes, both as a raw stream and as
// the payload of one correctly framed stream, so mutations reach the
// payload decoder past the CRC check. Any stream that decodes must
// re-encode with EncodeBatchStream and decode to the same batches,
// value bits included.
func FuzzReadBatchStream(f *testing.F) {
	valid, err := EncodeBatchStream([]Batch{codecBatch(3), {NumTasks: 1, NumWorkers: 1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(AppendBatchPayload(nil, codecBatch(2)))
	f.Add([]byte(BatchStreamMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		framed := binary.LittleEndian.AppendUint32([]byte(BatchStreamMagic), uint32(len(data)))
		framed = binary.LittleEndian.AppendUint32(framed, crc32.ChecksumIEEE(data))
		for _, body := range [][]byte{data, append(framed, data...)} {
			batches, err := readBatches(body)
			if err != nil {
				continue
			}
			enc, err := EncodeBatchStream(batches)
			if err != nil {
				t.Fatalf("decoded batches do not re-encode: %v", err)
			}
			again, err := readBatches(enc)
			if err != nil {
				t.Fatalf("re-encoded stream does not decode: %v", err)
			}
			if !sameBatches(again, batches) {
				t.Fatalf("round trip changed the batches:\n got %+v\nwant %+v", again, batches)
			}
		}
	})
}

func readBatches(body []byte) ([]Batch, error) {
	var out []Batch
	_, err := ReadBatchStream(bytes.NewReader(body), func(b Batch) error {
		out = append(out, b)
		return nil
	})
	return out, err
}

// sameBatches compares batches field for field, values by their bits
// (a NaN answer must survive the round trip as the same NaN).
func sameBatches(a, b []Batch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.NumTasks != y.NumTasks || x.NumWorkers != y.NumWorkers ||
			len(x.Answers) != len(y.Answers) || len(x.Truth) != len(y.Truth) {
			return false
		}
		for j, ax := range x.Answers {
			ay := y.Answers[j]
			if ax.Task != ay.Task || ax.Worker != ay.Worker || math.Float64bits(ax.Value) != math.Float64bits(ay.Value) {
				return false
			}
		}
		for task, v := range x.Truth {
			if w, ok := y.Truth[task]; !ok || math.Float64bits(v) != math.Float64bits(w) {
				return false
			}
		}
	}
	return true
}
