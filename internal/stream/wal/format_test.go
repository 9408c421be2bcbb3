package wal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"truthinference/internal/dataset"
	"truthinference/internal/stream"
)

// formatBatches are the fixed batches whose encodings are checked in
// under testdata/format: a dims-only batch, ids that take a multi-byte
// varint, numeric values (a negative subnormal and π among them) and
// truths inserted out of task order.
func formatBatches() []stream.Batch {
	truth := map[int]float64{}
	for _, task := range []int{300, 2, 7} {
		truth[task] = float64(task) / 4
	}
	return []stream.Batch{
		{NumTasks: 3, NumWorkers: 2},
		{Answers: []dataset.Answer{
			{Task: 300, Worker: 1, Value: 2.5},
			{Task: 0, Worker: 129, Value: -5e-324},
		}},
		{Answers: []dataset.Answer{{Task: 1, Worker: 0, Value: math.Pi}}, Truth: truth},
	}
}

// formatStore ingests formatBatches into a numeric store, appending each
// batch to l when l is not nil.
func formatStore(t *testing.T, l *Log) *stream.Store {
	t.Helper()
	store, err := stream.NewStore("format", dataset.Numeric, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range formatBatches() {
		v, _, err := store.Ingest(b)
		if err != nil {
			t.Fatal(err)
		}
		if l != nil {
			if err := l.Append(v, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	return store
}

// TestFileFormatsPinned compares the bytes that Log.Append,
// stream.EncodeBatchStream and WriteSnapshot write for formatBatches
// with the bytes checked in under testdata/format. Logs and snapshots
// on disk and batch-stream clients hold these formats, so a change to
// any of them fails here by file.
func TestFileFormatsPinned(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(filepath.Join(dir, "store.wal"))
	if err != nil {
		t.Fatal(err)
	}
	store := formatStore(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	d, version := store.Snapshot()
	if err := WriteSnapshot(filepath.Join(dir, "store.snap"), d, version); err != nil {
		t.Fatal(err)
	}
	body, err := stream.EncodeBatchStream(formatBatches())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "batches.tibat"), body, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"store.wal", "batches.tibat", "store.snap"} {
		t.Run(name, func(t *testing.T) {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "format", name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("wrote\n%x\nwant\n%x", got, want)
			}
		})
	}
}

// TestSnapshotV1StillRecovers opens a durable root whose snapshot is the
// v1 file pinned under testdata/format (CRC over the dataset bytes
// alone): it must recover to a store identical to the one that wrote
// it, and the next snapshot is written as v2.
func TestSnapshotV1StillRecovers(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "format", "store-v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v1[:len(snapMagicV1)]) != snapMagicV1 {
		t.Fatalf("pinned v1 snapshot opens with %q", v1[:len(snapMagicV1)])
	}
	base := filepath.Join(t.TempDir(), "store")
	if err := os.WriteFile(base+".snap", v1, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := func() (*stream.Store, error) { return stream.NewStore("format", dataset.Numeric, 0) }
	p, rec, err := Open(base, fresh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := formatStore(t, nil)
	if rec.SnapshotVersion != want.Version() {
		t.Fatalf("recovered snapshot version %d, want %d", rec.SnapshotVersion, want.Version())
	}
	requireIdentical(t, rec.Store, want)
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile(base + ".snap")
	if err != nil {
		t.Fatal(err)
	}
	if pinned, err := os.ReadFile(filepath.Join("testdata", "format", "store.snap")); err != nil || !bytes.Equal(v2, pinned) {
		t.Fatalf("the snapshot after a v1 recovery is not the pinned v2 bytes (%v)", err)
	}
}
