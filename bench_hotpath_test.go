package blaze_test

// Hot-path micro-benchmarks for the columnar execution work (PR 10) and
// the alloc-ceiling smoke test CI runs as a normal test. Each benchmark
// pairs the row-loop shape (boxed Records, per-record closure calls)
// with its batched twin so `go test -bench Hotpath -benchmem` and the
// CI benchstat job report the row-vs-batch delta directly.

import (
	"testing"

	"blaze/internal/dataflow"
	"blaze/internal/graphx"
	"blaze/internal/storage"
)

const (
	benchVerts = 4096 // records per PR partition
	benchDeg   = 8    // out-degree per vertex
)

var sinkRecs []dataflow.Record

// --- batch map: PageRank contributions ---------------------------------

func BenchmarkHotpathPRContribsRow(b *testing.B) {
	recs, _ := graphx.BenchPRPartition(benchVerts, benchDeg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRecs = graphx.BenchContribsRow(recs)
	}
}

func BenchmarkHotpathPRContribsBatch(b *testing.B) {
	_, batch := graphx.BenchPRPartition(benchVerts, benchDeg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := graphx.BenchContribsBatch(batch)
		if out == nil {
			b.Fatal("kernel declined")
		}
		out.Release()
	}
}

// --- shuffle route ------------------------------------------------------

func contribBatch() *dataflow.Batch {
	recs, _ := graphx.BenchPRPartition(benchVerts, benchDeg)
	return graphx.BenchContribsBatch(dataflow.FromRecords(recs))
}

func BenchmarkHotpathShuffleRouteRow(b *testing.B) {
	const parts = 8
	recs := contribBatch().Records()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buckets := make([][]dataflow.Record, parts)
		for _, r := range recs {
			p := dataflow.HashPartition(r.Key, parts)
			buckets[p] = append(buckets[p], r)
		}
		sinkRecs = buckets[0]
	}
}

func BenchmarkHotpathShuffleRouteBatch(b *testing.B) {
	const parts = 8
	in := contribBatch()
	router := dataflow.NewRouter(parts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buckets := make([]*dataflow.Batch, parts)
		for p := range buckets {
			buckets[p] = dataflow.NewBatch(in.Len() / parts)
		}
		for j := 0; j < in.Len(); j++ {
			buckets[router.Bucket(in.Keys[j])].AppendFromBatch(in, j)
		}
		for _, bk := range buckets {
			bk.Release()
		}
	}
}

// --- combine ------------------------------------------------------------

func BenchmarkHotpathCombineRow(b *testing.B) {
	recs := contribBatch().Records()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The row loop's mergeByKey shape: map accumulation in first-seen
		// key order over boxed float64 values.
		idx := make(map[int64]int, len(recs))
		var out []dataflow.Record
		for _, r := range recs {
			if at, ok := idx[r.Key]; ok {
				out[at].Value = out[at].Value.(float64) + r.Value.(float64)
			} else {
				idx[r.Key] = len(out)
				out = append(out, r)
			}
		}
		sinkRecs = out
	}
}

func BenchmarkHotpathCombineBatch(b *testing.B) {
	in := contribBatch()
	add := func(a, b float64) float64 { return a + b }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := dataflow.MergeBatchByKeyF64(in, add)
		if out == nil {
			b.Fatal("merge declined")
		}
		out.Release()
	}
}

// --- codec round-trip ---------------------------------------------------

func BenchmarkHotpathCodecRoundTrip(b *testing.B) {
	recs := contribBatch().Records()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := storage.EncodeRecords(recs)
		if err != nil {
			b.Fatal(err)
		}
		if sinkRecs, err = storage.DecodeRecords(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- CI alloc-ceiling smoke ---------------------------------------------

// TestBatchedPRKernelAllocCeiling pins the allocation budget of the
// batched PageRank contributions kernel. The row loop allocates one
// boxed []Record per input record (benchVerts of them, plus a box per
// output record); the batched kernel must stay under a small constant
// number of allocations per partition regardless of record count. CI
// runs this as a plain test, so an accidental per-record allocation on
// the columnar path (a lost pool, an interface box in the inner loop)
// fails the build rather than silently eating the speedup.
func TestBatchedPRKernelAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is noisy under -short harnesses")
	}
	_, batch := graphx.BenchPRPartition(benchVerts, benchDeg)
	// Warm the pools so steady-state reuse is what gets measured.
	for i := 0; i < 4; i++ {
		if out := graphx.BenchContribsBatch(batch); out != nil {
			out.Release()
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		out := graphx.BenchContribsBatch(batch)
		if out == nil {
			t.Fatal("kernel declined")
		}
		out.Release()
	})
	// Steady state is ~3 allocs (batch + column headers); 32 leaves slack
	// for pool churn while still being ~100x under one-alloc-per-record.
	const ceiling = 32
	if allocs > ceiling {
		t.Fatalf("batched PR kernel allocates %.0f allocs per %d-record partition (ceiling %d): the columnar path has a per-record allocation", allocs, benchVerts, ceiling)
	}
}
