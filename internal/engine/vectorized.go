package engine

// The two data planes of the task body. runTaskOn, materializeOn and
// fetchShuffleOn (scheduler.go) are written once over a plane: they
// issue every virtual-time charge, metrics increment, controller
// callback, fault-recovery attribution and event, and the plane only
// decides how a partition is held between operators. rows holds boxed
// []dataflow.Record slices; columns holds typed *dataflow.Batch columns
// with pooled backing arrays.
//
// A task runs on columns exactly when its stage boundary has a batch
// kernel (Dataset.HasBatchKernel); there is no user setting. Kernels are
// attached only where columns win end to end (PageRank and streaming
// PageRank, plus the built-in ReduceByKeyF64 combine), so the choice
// follows the workload. Batch kernels must be observationally identical
// to their row compute functions (same records, same order, bit-equal
// floats) and Batch.EstimateSize equals EstimateRecords on the same
// rows, so a stage's metrics and events are byte-equal on either plane;
// the seed goldens in identity_golden_test.go, recorded on rows, pin it.
// Block stores and the driver boundary stay row-typed: batches are boxed
// once when a partition is cached, spilled or collected, and unboxed
// (copied) once on a cache hit.

import (
	"sync/atomic"

	"blaze/internal/dataflow"
	"blaze/internal/shuffle"
	"blaze/internal/storage"
)

// vecTasksTotal counts tasks executed on the columnar plane across the
// whole process. It exists so tests and blazebench can assert which
// plane ran — by construction nothing in a run's metrics or events
// reveals it.
var vecTasksTotal atomic.Int64

// VecTasksExecuted returns the process-wide count of columnar tasks.
func VecTasksExecuted() int64 { return vecTasksTotal.Load() }

// plane is how a task holds a partition of type P between operators.
type plane[P any] interface {
	// fromRecords adopts a partition read from a row-typed block store.
	fromRecords(recs []dataflow.Record) P
	// records returns the partition in row form for a block store or
	// the driver. The partition stays usable.
	records(p P) []dataflow.Record
	length(p P) int
	// size is the analytic footprint, EstimateRecords of the rows.
	size(p P) int64
	// release returns pooled storage; p must not be used afterwards.
	release(p P)
	// compute runs the dataset's operator on its parents' partitions,
	// consuming them.
	compute(ds *dataflow.Dataset, part int, ins []P) P
	// route appends every record of out to buckets[r.Bucket(key)].
	route(out P, r dataflow.Router, buckets []P)
	// combine merges same-key records of a routed bucket map-side,
	// consuming the bucket.
	combine(bucket P, dep dataflow.Dependency) P
	fetch(s *shuffle.Service, shuffleID, bucket int) (P, int64, error)
	// setMapOutput hands buckets over to the shuffle service.
	setMapOutput(s *shuffle.Service, shuffleID, mapPart, executor int, buckets []P, bytes []int64) error
}

// rows is the boxed plane: a partition is the []dataflow.Record slice
// itself, shared with the block stores.
type rows struct{}

func (rows) fromRecords(recs []dataflow.Record) []dataflow.Record { return recs }
func (rows) records(p []dataflow.Record) []dataflow.Record        { return p }
func (rows) length(p []dataflow.Record) int                       { return len(p) }
func (rows) size(p []dataflow.Record) int64                       { return storage.EstimateRecords(p) }
func (rows) release([]dataflow.Record)                            {}

func (rows) compute(ds *dataflow.Dataset, part int, ins [][]dataflow.Record) []dataflow.Record {
	return ds.Compute(part, ins)
}

func (rows) route(out []dataflow.Record, r dataflow.Router, buckets [][]dataflow.Record) {
	for _, rec := range out {
		b := r.Bucket(rec.Key)
		buckets[b] = append(buckets[b], rec)
	}
}

func (rows) combine(bucket []dataflow.Record, dep dataflow.Dependency) []dataflow.Record {
	return dataflow.MergeByKey(bucket, dep.Combine)
}

func (rows) fetch(s *shuffle.Service, shuffleID, bucket int) ([]dataflow.Record, int64, error) {
	return s.Fetch(shuffleID, bucket)
}

func (rows) setMapOutput(s *shuffle.Service, shuffleID, mapPart, executor int, buckets [][]dataflow.Record, bytes []int64) error {
	return s.SetMapOutput(shuffleID, mapPart, executor, buckets, bytes)
}

// columns is the typed plane. Cache hits copy out of the store
// (FromRecords), so released batches never alias cached records.
type columns struct{}

func (columns) fromRecords(recs []dataflow.Record) *dataflow.Batch { return dataflow.FromRecords(recs) }
func (columns) records(p *dataflow.Batch) []dataflow.Record        { return p.Records() }
func (columns) length(p *dataflow.Batch) int                       { return p.Len() }
func (columns) size(p *dataflow.Batch) int64                       { return p.EstimateSize() }
func (columns) release(p *dataflow.Batch)                          { p.Release() }

func (columns) compute(ds *dataflow.Dataset, part int, ins []*dataflow.Batch) *dataflow.Batch {
	out := ds.BatchCompute(part, ins)
	for _, in := range ins {
		in.Release() // kernels must not retain inputs; see batch.go
	}
	return out
}

func (columns) route(out *dataflow.Batch, r dataflow.Router, buckets []*dataflow.Batch) {
	for i := 0; i < out.Len(); i++ {
		b := r.Bucket(out.Keys[i])
		bb := buckets[b]
		if bb == nil {
			bb = dataflow.NewBatch(8)
			bb.NonNil = true // row routing appends, yielding non-nil buckets
			buckets[b] = bb
		}
		bb.AppendFromBatch(out, i)
	}
}

// combine merges unboxed when the dependency carries a float64 combiner
// and the bucket is a float64 column, boxed otherwise. Both preserve
// mergeByKey's first-seen key order and per-key accumulation order, so
// the merged values are bit-equal to the row plane's.
func (columns) combine(bb *dataflow.Batch, dep dataflow.Dependency) *dataflow.Batch {
	var merged *dataflow.Batch
	if _, ok := bb.Col.(*dataflow.F64Column); ok && dep.CombineF64 != nil {
		merged = dataflow.MergeBatchByKeyF64(bb, dep.CombineF64)
	} else {
		merged = dataflow.FromRecords(dataflow.MergeByKey(bb.Records(), dep.Combine))
	}
	bb.Release()
	return merged
}

func (columns) fetch(s *shuffle.Service, shuffleID, bucket int) (*dataflow.Batch, int64, error) {
	return s.FetchBatch(shuffleID, bucket)
}

func (columns) setMapOutput(s *shuffle.Service, shuffleID, mapPart, executor int, buckets []*dataflow.Batch, bytes []int64) error {
	return s.SetMapOutputBatch(shuffleID, mapPart, executor, buckets, bytes)
}
