package engine

// The columnar task loop. runStage picks it per stage, with no user
// setting: a stage runs here when its boundary dataset has a batch
// kernel (Dataset.HasBatchKernel), it is not a regeneration, and it
// passes the home-locality gate (stageIsolated); every other stage runs
// the row loop. Kernels are attached only where the columnar loop wins
// end to end (PageRank and streaming PageRank, plus the built-in
// ReduceByKeyF64 combine), so the choice follows the workload.
//
// runTaskBodyVec / materializeVec / fetchShuffleVec are line-for-line
// mirrors of runTaskBody / materialize / fetchShuffle in scheduler.go
// with one difference: data moves between narrow operators as typed
// *dataflow.Batch columns with pooled backing arrays instead of boxed
// []dataflow.Record slices. Every virtual-time charge, metrics
// increment, controller callback and event is issued at the same point
// with the same arguments, and batch kernels are required to be
// observationally identical to their row compute functions (same
// records, same order, bit-equal floats), so a stage's metrics and
// events are byte-equal whichever loop runs it. Block stores and the
// driver boundary stay row-typed: batches are boxed exactly once when a
// partition is cached, spilled or collected, and unboxed (copied) once
// on a cache hit.
//
// When editing runTaskBody/materialize/fetchShuffle, mirror the change
// here; the seed goldens in identity_golden_test.go (recorded on the row
// loop) catch a missed divergence.

import (
	"sync/atomic"
	"time"

	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/eventlog"
	"blaze/internal/storage"
)

// vecTasksTotal counts tasks executed on the columnar loop across the
// whole process. It exists so tests and blazebench can assert which
// loop ran — by construction nothing in a run's metrics or events
// reveals it.
var vecTasksTotal atomic.Int64

// VecTasksExecuted returns the process-wide count of columnar tasks.
func VecTasksExecuted() int64 { return vecTasksTotal.Load() }

// runTaskBodyVec is runTaskBody on the columnar data plane. The result
// stage still returns rows (the driver boundary); map stages return nil
// because runStage ignores map-task results.
func (c *Cluster) runTaskBodyVec(ex *Executor, st *Stage, part int) []dataflow.Record {
	vecTasksTotal.Add(1)
	ex.Clock().Advance(c.cfg.Params.TaskOverhead)
	c.met.Executors[ex.ID].Tasks++
	out := c.materializeVec(ex, st.Boundary, part)
	c.emitEx(ex, eventlog.Event{Kind: eventlog.TaskEnd, Time: ex.Clock().Now(), Job: c.curJob,
		Stage: st.ID, Executor: ex.ID, Dataset: st.Boundary.ID(), Partition: part})
	if st.IsResult {
		recs := out.Records()
		out.Release()
		return recs
	}

	dep := st.ShuffleDep
	batches := make([]*dataflow.Batch, st.NumBuckets)
	if dep.Broadcast {
		// Every bucket shares the one output batch; the shuffle service
		// retains it, so it is not released below.
		for b := range batches {
			batches[b] = out
		}
	} else {
		router, ok := c.shuffle.Router(dep.ShuffleID)
		if !ok {
			router = dataflow.NewRouter(st.NumBuckets)
		}
		for i := 0; i < out.Len(); i++ {
			b := router.Bucket(out.Keys[i])
			bb := batches[b]
			if bb == nil {
				bb = dataflow.NewBatch(8)
				bb.NonNil = true // row routing appends, yielding non-nil buckets
				batches[b] = bb
			}
			bb.AppendFromBatch(out, i)
		}
	}
	bucketBytes := make([]int64, st.NumBuckets)
	var written int64
	for b, bb := range batches {
		if bb.Len() == 0 {
			continue // row path skips empty buckets: size stays 0, not 24
		}
		if dep.Combine != nil {
			merged := combineBucket(bb, dep)
			bb.Release()
			batches[b] = merged
			bb = merged
		}
		size := bb.EstimateSize()
		bucketBytes[b] = size
		written += size
	}
	if !dep.Broadcast {
		out.Release()
	}
	if err := c.shuffle.SetMapOutputBatch(dep.ShuffleID, part, ex.ID, batches, bucketBytes); err != nil {
		panic(err) // stage was Ensure'd and only missing maps re-run
	}
	// Shuffle write cost: serialization dominates, exactly as in
	// runTaskBody.
	cost := c.cfg.Params.Serialize(written)
	ex.Clock().Advance(cost)
	c.met.Executors[ex.ID].Breakdown.Shuffle += cost
	return nil
}

// combineBucket applies map-side combining to one routed bucket,
// unboxed when the dependency carries a float64 combiner and the bucket
// is a float64 column, boxed otherwise. Both branches preserve
// mergeByKey's first-seen key order and per-key accumulation order, so
// the merged values are bit-equal to the row path's.
func combineBucket(bb *dataflow.Batch, dep dataflow.Dependency) *dataflow.Batch {
	if dep.CombineF64 != nil {
		if _, ok := bb.Col.(*dataflow.F64Column); ok {
			return dataflow.MergeBatchByKeyF64(bb, dep.CombineF64)
		}
	}
	return dataflow.FromRecords(dataflow.MergeByKey(bb.Records(), dep.Combine))
}

// materializeVec is materialize on the columnar data plane: the same
// three recovery paths, charges and events; only the payload container
// differs. Cache hits box out of the store (FromRecords copies, so
// released batches never alias cached records); recomputed partitions
// box into it at most once, and only if the controller places them.
func (c *Cluster) materializeVec(ex *Executor, ds *dataflow.Dataset, part int) *dataflow.Batch {
	id := storage.BlockID{Dataset: ds.ID(), Partition: part}
	params := c.cfg.Params
	stats := &c.met.Executors[ex.ID]

	// 1. Memory store.
	if recs, meta, ok := ex.Mem.Get(id, ex.Clock().Now()); ok {
		if c.cfg.AlluxioMode {
			cost := params.Serialize(meta.Size)
			ex.Clock().Advance(cost)
			stats.Breakdown.DiskIO += cost
			c.meter.AddModeled(storage.MemDecode, cost)
		}
		c.met.IncCacheHit()
		c.ctl.OnBlockAccess(ex, id)
		c.emitEx(ex, eventlog.Event{Kind: eventlog.BlockHit, Time: ex.Clock().Now(), Job: c.curJob,
			Executor: ex.ID, Dataset: id.Dataset, Partition: id.Partition, Bytes: meta.Size})
		return dataflow.FromRecords(recs)
	}

	// 2. Disk store.
	if recs, size, ok := ex.Disk.Get(id); ok {
		cost := params.DiskRead(size)
		ex.Clock().Advance(cost)
		stats.Breakdown.DiskIO += cost
		c.meter.AddModeled(storage.DiskRead, cost)
		c.met.IncDiskHit()
		c.ctl.OnBlockAccess(ex, id)
		c.emitEx(ex, eventlog.Event{Kind: eventlog.BlockDiskHit, Time: ex.Clock().Now(), Job: c.curJob,
			Executor: ex.ID, Dataset: id.Dataset, Partition: id.Partition, Bytes: size, Cost: cost})
		if c.ctl.PromoteOnDiskRead(ex, id) {
			c.admitToMemory(ex, id, recs, size)
		}
		return dataflow.FromRecords(recs)
	}

	// 3. Recompute from parents.
	c.mu.Lock()
	wasComputed := c.computedOnce[id]
	c.mu.Unlock()
	ins := make([]*dataflow.Batch, len(ds.Deps()))
	totalIn := 0
	var fetchCost time.Duration
	for i, dep := range ds.Deps() {
		if dep.Shuffle {
			var fc time.Duration
			ins[i], fc = c.fetchShuffleVec(ex, dep, ds.Partitions(), part)
			fetchCost += fc
		} else {
			ins[i] = c.materializeVec(ex, dep.Parent, part)
		}
		totalIn += ins[i].Len()
	}
	out := ds.BatchCompute(part, ins)
	for _, in := range ins {
		in.Release() // kernels must not retain inputs; see batch.go
	}
	n := totalIn
	if out.Len() > n {
		n = out.Len()
	}
	size := out.EstimateSize()
	cost := params.Compute(costmodel.OpClass(ds.Class()), n)
	if len(ds.Deps()) == 0 {
		cost += params.SourceRead(size)
	}
	ex.Clock().Advance(cost)
	stats.Breakdown.Compute += cost
	if wasComputed {
		stats.Breakdown.Recompute += cost
		c.met.IncMiss()
		c.met.AddRecompute(c.curJob, cost)
		c.emitEx(ex, eventlog.Event{Kind: eventlog.Recomputed, Time: ex.Clock().Now(), Job: c.curJob,
			Executor: ex.ID, Dataset: ds.ID(), Partition: part, Cost: cost})
	}
	c.mu.Lock()
	class, wasFaultLost := c.faultLost[id]
	if wasFaultLost {
		delete(c.faultLost, id)
	}
	c.computedOnce[id] = true
	c.mu.Unlock()
	if wasFaultLost {
		c.met.AddFaultRecovery(c.curJob, cost)
		c.met.AddFaultRecoveryClass(class, cost)
		c.emitEx(ex, eventlog.Event{Kind: eventlog.Recovered, Time: ex.Clock().Now(), Job: c.curJob,
			Executor: ex.ID, Dataset: ds.ID(), Partition: part, Cost: cost})
	}

	c.ctl.OnComputed(ex, ds, part, size, cost+fetchCost)

	primary, fallback := c.ctl.PlaceComputed(ex, ds, part, size)
	var boxed []dataflow.Record
	box := func() []dataflow.Record {
		if boxed == nil {
			boxed = out.Records()
		}
		return boxed
	}
	placed := false
	if primary == PlaceMemory {
		placed = c.admitToMemory(ex, id, box(), size)
	}
	if !placed && (primary == PlaceDisk || (primary == PlaceMemory && fallback == PlaceDisk)) {
		c.writeToDisk(ex, id, box(), size)
	}
	return out
}

// fetchShuffleVec is fetchShuffle returning a columnar bucket; the
// regeneration/flake prologue and the fetch cost charge are identical.
func (c *Cluster) fetchShuffleVec(ex *Executor, dep dataflow.Dependency, childParts, part int) (*dataflow.Batch, time.Duration) {
	c.fetchShufflePrologue(ex, dep, childParts, part)
	bb, bytes, err := c.shuffle.FetchBatch(dep.ShuffleID, part)
	if err != nil {
		panic(err) // regeneration above guarantees completeness
	}
	cost := c.cfg.Params.NetTransfer(bytes) + c.cfg.Params.Serialize(bytes)
	ex.Clock().Advance(cost)
	c.met.Executors[ex.ID].Breakdown.Shuffle += cost
	return bb, cost
}
