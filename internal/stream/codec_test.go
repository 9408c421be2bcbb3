package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"truthinference/internal/dataset"
)

func codecBatch(nAns int) Batch {
	b := Batch{NumTasks: 10, NumWorkers: 5, Truth: map[int]float64{2: 1, 7: 0}}
	for i := 0; i < nAns; i++ {
		b.Answers = append(b.Answers, dataset.Answer{
			Task:   i % 10,
			Worker: i % 5,
			Value:  float64(i%2) + 0.5*float64(i%3),
		})
	}
	return b
}

func TestBatchPayloadRoundTrip(t *testing.T) {
	cases := []Batch{
		{},
		{NumTasks: 3, NumWorkers: 2},
		codecBatch(1),
		codecBatch(257),
		{Answers: []dataset.Answer{{Task: 0, Worker: 0, Value: math.Inf(1)}}},
	}
	for i, b := range cases {
		payload := AppendBatchPayload(nil, b)
		got, err := DecodeBatchPayload(payload)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		// Canonicalize: decode never produces empty non-nil slices/maps.
		want := b
		if len(want.Answers) == 0 {
			want.Answers = nil
		}
		if len(want.Truth) == 0 {
			want.Truth = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestDecodeBatchPayloadRejectsDamage(t *testing.T) {
	payload := AppendBatchPayload(nil, codecBatch(4))

	if _, err := DecodeBatchPayload(payload[:len(payload)-3]); err == nil {
		t.Error("truncated payload decoded without error")
	}
	if _, err := DecodeBatchPayload(append(append([]byte{}, payload...), 0xff)); err == nil {
		t.Error("trailing bytes decoded without error")
	}
	// A huge declared answer count must be rejected before allocation.
	huge := binary.AppendUvarint(nil, 0)     // NumTasks
	huge = binary.AppendUvarint(huge, 0)     // NumWorkers
	huge = binary.AppendUvarint(huge, 1<<40) // answer count
	if _, err := DecodeBatchPayload(huge); err == nil {
		t.Error("oversized answer count decoded without error")
	}
	// A dim beyond int range would decode negative, which the encoder
	// writes back as 0.
	wide := binary.AppendUvarint(nil, 1<<63)
	wide = append(wide, 0, 0, 0) // NumWorkers, answer count, truth count
	if _, err := DecodeBatchPayload(wide); err == nil {
		t.Error("a dim beyond int range decoded without error")
	}
}

func TestBatchStreamRoundTrip(t *testing.T) {
	// The 20,000-answer frame spans several payload reads and grows the
	// reused buffer; the frame after it reads into the grown one.
	batches := []Batch{codecBatch(3), {NumTasks: 1, NumWorkers: 1}, codecBatch(100), codecBatch(20000), codecBatch(5)}
	body, err := EncodeBatchStream(batches)
	if err != nil {
		t.Fatal(err)
	}
	var got []Batch
	n, err := ReadBatchStream(bytes.NewReader(body), func(b Batch) error {
		got = append(got, b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(batches) {
		t.Fatalf("frames = %d, want %d", n, len(batches))
	}
	for i := range batches {
		if len(got[i].Answers) != len(batches[i].Answers) ||
			got[i].NumTasks != batches[i].NumTasks {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}

func TestBatchStreamEmpty(t *testing.T) {
	n, err := ReadBatchStream(bytes.NewReader([]byte(BatchStreamMagic)), func(Batch) error {
		t.Fatal("fn called on empty stream")
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("empty stream: n=%d err=%v", n, err)
	}
}

// TestBatchStreamDeclaredLengthAllocatesAsBytesArrive sends the 16
// bytes of a magic and a frame header that declares a MaxFramePayload
// (64 MiB) payload, and nothing else. The read must fail as a torn
// payload without allocating the declared length: the payload buffer
// grows only as bytes arrive.
func TestBatchStreamDeclaredLengthAllocatesAsBytesArrive(t *testing.T) {
	body := []byte(BatchStreamMagic)
	body = binary.LittleEndian.AppendUint32(body, MaxFramePayload)
	body = binary.LittleEndian.AppendUint32(body, 0)
	if len(body) != 16 {
		t.Fatalf("stream is %d bytes, want 16", len(body))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBatchStream(bytes.NewReader(body), func(Batch) error { return nil })
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "torn frame payload") {
		t.Fatalf("err = %v, want a torn frame payload", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("reading a 16-byte stream allocated %d bytes, want under 1 MiB", alloc)
	}
}

func TestBatchStreamRejectsDamage(t *testing.T) {
	body, err := EncodeBatchStream([]Batch{codecBatch(3)})
	if err != nil {
		t.Fatal(err)
	}
	noop := func(Batch) error { return nil }

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte{}, body...)
		bad[0] ^= 0xff
		if _, err := ReadBatchStream(bytes.NewReader(bad), noop); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("missing magic", func(t *testing.T) {
		if _, err := ReadBatchStream(bytes.NewReader(nil), noop); err == nil {
			t.Fatal("empty body accepted")
		}
	})
	t.Run("crc mismatch", func(t *testing.T) {
		bad := append([]byte{}, body...)
		bad[len(bad)-1] ^= 0xff
		if _, err := ReadBatchStream(bytes.NewReader(bad), noop); err == nil {
			t.Fatal("flipped payload byte accepted")
		}
	})
	t.Run("torn header", func(t *testing.T) {
		if _, err := ReadBatchStream(bytes.NewReader(body[:len(BatchStreamMagic)+3]), noop); err == nil {
			t.Fatal("torn header accepted")
		}
	})
	t.Run("torn payload", func(t *testing.T) {
		if _, err := ReadBatchStream(bytes.NewReader(body[:len(body)-2]), noop); err == nil {
			t.Fatal("torn payload accepted")
		}
	})
	t.Run("oversized frame", func(t *testing.T) {
		bad := []byte(BatchStreamMagic)
		bad = binary.LittleEndian.AppendUint32(bad, MaxFramePayload+1)
		bad = binary.LittleEndian.AppendUint32(bad, 0)
		_, err := ReadBatchStream(bytes.NewReader(bad), noop)
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("fn error propagates", func(t *testing.T) {
		boom := errors.New("boom")
		if _, err := ReadBatchStream(bytes.NewReader(body), func(Batch) error { return boom }); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	})
	t.Run("reader error propagates", func(t *testing.T) {
		boom := errors.New("cap hit")
		r := io.MultiReader(bytes.NewReader(body[:len(body)-1]), errReader{boom})
		if _, err := ReadBatchStream(r, noop); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want cap hit", err)
		}
	})
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }
