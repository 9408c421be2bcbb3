package wal

import (
	"path/filepath"
	"testing"

	"truthinference/internal/simulate"
	"truthinference/internal/stream"
)

// BenchmarkCompactionEncode measures what compaction runs before its
// file write, on S_Rel at scale 1.0 (98,453 answers): Store.Contents
// (the pinned log prefix and a copy of the truths) encoded as snapshot
// bytes, with no index built.
func BenchmarkCompactionEncode(b *testing.B) {
	store := stream.NewStoreAt(simulate.Generate(simulate.SRel, 1), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeSnapshot(store.Contents()); err != nil {
			b.Fatal(err)
		}
	}
}

// recovered keeps BenchmarkRecoverSnapshot's store live, so the measured
// call cannot be optimized away.
var recovered *stream.Store

// BenchmarkRecoverSnapshot measures what recovery runs before it replays
// the log, on the same data: ReadSnapshot (read, CRC check, decode and
// validation, with no index built) and NewStoreAt over the decoded
// dataset, which copies nothing.
func BenchmarkRecoverSnapshot(b *testing.B) {
	path := filepath.Join(b.TempDir(), "store.snap")
	if err := WriteSnapshot(path, simulate.Generate(simulate.SRel, 1), 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, version, err := ReadSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		recovered = stream.NewStoreAt(d, version)
	}
}
