package wal

import (
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
