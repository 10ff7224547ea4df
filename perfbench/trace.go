package main

// Tracing for the per-layer run. Everything here lives outside the
// engine: an engine.TaskHook observes jobs, tasks and shuffle fetches,
// and a decorator around the caching controller times every call the
// engine makes into core. Spans are folded into counters as they close,
// so a traced operation costs two clock reads per boundary and nothing
// is written out until the run ends.

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blaze/internal/dataflow"
	"blaze/internal/engine"
	"blaze/internal/eventlog"
	"blaze/internal/storage"
)

// tracer accumulates the per-layer counters of traced operations. It is
// the engine hook of every traced cluster; task and fetch callbacks
// arrive concurrently from the engine's per-executor workers.
type tracer struct {
	jobs, tasks, fetches atomic.Int64
	jobNs, busyNs        atomic.Int64

	// inFlight and peakInFlight count top-level tasks running at once:
	// a peak above one shows the engine ran stages on parallel workers.
	inFlight, peakInFlight atomic.Int64

	mu        sync.Mutex
	jobStart  time.Time
	taskStart map[taskKey]time.Time

	core coreCounters

	// sourceComputes counts OnComputed calls on datasets without
	// dependencies whose name starts with sourcePrefix: the partitions
	// the workload's input generator produced. sources keeps one such
	// dataset per name, so the generator's cost per partition can be
	// timed standalone through the program's own source function.
	sourcePrefix   string
	sourceComputes atomic.Int64
	sources        map[string]*dataflow.Dataset
}

type taskKey struct{ exec, stage, part int }

var errNoSnapshots = errors.New("perfbench: wrapped controller keeps no snapshots")

func newTracer(sourcePrefix string) *tracer {
	return &tracer{
		taskStart:    make(map[taskKey]time.Time),
		sourcePrefix: sourcePrefix,
		sources:      make(map[string]*dataflow.Dataset),
	}
}

// observeSource counts one computed partition of a generator-backed
// source dataset.
func (t *tracer) observeSource(ds *dataflow.Dataset) {
	if t.sourcePrefix == "" || len(ds.Deps()) > 0 || !strings.HasPrefix(ds.Name(), t.sourcePrefix) {
		return
	}
	t.sourceComputes.Add(1)
	t.mu.Lock()
	if _, ok := t.sources[ds.Name()]; !ok {
		t.sources[ds.Name()] = ds
	}
	t.mu.Unlock()
}

// sourcePartitionCost recomputes every partition of the source datasets
// the traced operations used, standalone, and returns the mean wall time
// per partition: what one source compute costs the program, including
// any memoization inside its source function.
func (t *tracer) sourcePartitionCost() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total time.Duration
	parts := 0
	for _, ds := range t.sources {
		for p := 0; p < ds.Partitions(); p++ {
			start := time.Now()
			ds.Compute(p, nil)
			total += time.Since(start)
			parts++
		}
	}
	if parts == 0 {
		return 0
	}
	return total / time.Duration(parts)
}

// OnJobStart implements engine.Hook. It fires after the controller's own
// job-start work, so engine.job_ms covers stage execution only.
func (t *tracer) OnJobStart(_ *engine.Cluster, _ *engine.Job) {
	t.jobs.Add(1)
	t.mu.Lock()
	t.jobStart = time.Now()
	t.mu.Unlock()
}

// OnStageEnd implements engine.Hook.
func (t *tracer) OnStageEnd(*engine.Cluster, *engine.Stage) {}

// OnJobEnd implements engine.Hook.
func (t *tracer) OnJobEnd(_ *engine.Cluster, _ *engine.Job) {
	t.mu.Lock()
	d := time.Since(t.jobStart)
	t.mu.Unlock()
	t.jobNs.Add(int64(d))
}

// OnTaskStart implements engine.TaskHook; it never fails an attempt.
func (t *tracer) OnTaskStart(_ *engine.Cluster, ex *engine.Executor, st *engine.Stage, part, attempt int) bool {
	if attempt == 1 {
		if !st.Regenerated {
			n := t.inFlight.Add(1)
			for peak := t.peakInFlight.Load(); n > peak && !t.peakInFlight.CompareAndSwap(peak, n); peak = t.peakInFlight.Load() {
			}
		}
		t.mu.Lock()
		t.taskStart[taskKey{ex.ID, st.ID, part}] = time.Now()
		t.mu.Unlock()
	}
	return false
}

// OnTaskEnd implements engine.TaskHook. Regenerated stages run inside an
// outer task, whose span already covers them, so only top-level tasks
// add to the busy time.
func (t *tracer) OnTaskEnd(_ *engine.Cluster, ex *engine.Executor, st *engine.Stage, part int) {
	now := time.Now()
	t.tasks.Add(1)
	k := taskKey{ex.ID, st.ID, part}
	t.mu.Lock()
	start, ok := t.taskStart[k]
	delete(t.taskStart, k)
	t.mu.Unlock()
	if ok && !st.Regenerated {
		t.busyNs.Add(int64(now.Sub(start)))
		t.inFlight.Add(-1)
	}
}

// OnFetch implements engine.TaskHook; it never fails an attempt.
func (t *tracer) OnFetch(_ *engine.Cluster, _ *engine.Executor, _, _, attempt int) bool {
	if attempt == 1 {
		t.fetches.Add(1)
	}
	return false
}

// coreCounters times the controller callbacks, one span kind per
// callback group. taskNs sums the callbacks the engine makes from inside
// tasks (placement, eviction, observation and block bookkeeping), the
// part of core time that engine.task_busy_ms contains. otherNs collects
// the calls no metric reports on its own (binding, job end, window
// advance, snapshots, plan repair).
type coreCounters struct {
	calls                         atomic.Int64
	placeNs, victimsNs, observeNs atomic.Int64
	jobStartNs, stageEndNs        atomic.Int64
	blockNs, otherNs              atomic.Int64
}

func (c *coreCounters) add(ns *atomic.Int64, start time.Time) {
	ns.Add(int64(time.Since(start)))
	c.calls.Add(1)
}

func (c *coreCounters) taskNs() int64 {
	return c.placeNs.Load() + c.victimsNs.Load() + c.observeNs.Load() + c.blockNs.Load()
}

// tracedController decorates a caching controller with call timing. It
// forwards every optional engine interface — ParallelCapable,
// WindowAdvancer, StateSnapshotter, PlanRepairer — so the engine takes
// the same paths as with the bare controller: a missing ParallelCaps
// would silently put every stage on the sequential loop. When the
// wrapped controller lacks one of them, the forwarder behaves as the
// engine does for a controller without it.
type tracedController struct {
	inner engine.Controller
	t     *tracer
}

func newTracedController(inner engine.Controller, t *tracer) *tracedController {
	return &tracedController{inner: inner, t: t}
}

func (tc *tracedController) Name() string { return tc.inner.Name() }

func (tc *tracedController) Bind(c *engine.Cluster) {
	defer tc.t.core.add(&tc.t.core.otherNs, time.Now())
	tc.inner.Bind(c)
}

func (tc *tracedController) OnJobStart(j *engine.Job) {
	defer tc.t.core.add(&tc.t.core.jobStartNs, time.Now())
	tc.inner.OnJobStart(j)
}

func (tc *tracedController) OnJobEnd(j *engine.Job) {
	defer tc.t.core.add(&tc.t.core.otherNs, time.Now())
	tc.inner.OnJobEnd(j)
}

func (tc *tracedController) OnStageEnd(st *engine.Stage, idle []time.Duration) {
	defer tc.t.core.add(&tc.t.core.stageEndNs, time.Now())
	tc.inner.OnStageEnd(st, idle)
}

func (tc *tracedController) PlaceComputed(ex *engine.Executor, ds *dataflow.Dataset, part int, size int64) (engine.Placement, engine.Placement) {
	defer tc.t.core.add(&tc.t.core.placeNs, time.Now())
	return tc.inner.PlaceComputed(ex, ds, part, size)
}

func (tc *tracedController) SelectVictims(ex *engine.Executor, need int64) []engine.Victim {
	defer tc.t.core.add(&tc.t.core.victimsNs, time.Now())
	return tc.inner.SelectVictims(ex, need)
}

func (tc *tracedController) PromoteOnDiskRead(ex *engine.Executor, id storage.BlockID) bool {
	defer tc.t.core.add(&tc.t.core.blockNs, time.Now())
	return tc.inner.PromoteOnDiskRead(ex, id)
}

func (tc *tracedController) OnBlockAccess(ex *engine.Executor, id storage.BlockID) {
	defer tc.t.core.add(&tc.t.core.blockNs, time.Now())
	tc.inner.OnBlockAccess(ex, id)
}

func (tc *tracedController) OnBlockAdmitted(ex *engine.Executor, id storage.BlockID) {
	defer tc.t.core.add(&tc.t.core.blockNs, time.Now())
	tc.inner.OnBlockAdmitted(ex, id)
}

func (tc *tracedController) OnBlockRemoved(ex *engine.Executor, id storage.BlockID) {
	defer tc.t.core.add(&tc.t.core.blockNs, time.Now())
	tc.inner.OnBlockRemoved(ex, id)
}

func (tc *tracedController) OnComputed(ex *engine.Executor, ds *dataflow.Dataset, part int, size int64, cost time.Duration) {
	tc.t.observeSource(ds)
	defer tc.t.core.add(&tc.t.core.observeNs, time.Now())
	tc.inner.OnComputed(ex, ds, part, size, cost)
}

// ParallelCaps implements engine.ParallelCapable.
func (tc *tracedController) ParallelCaps() engine.ParallelCaps {
	if pc, ok := tc.inner.(engine.ParallelCapable); ok {
		return pc.ParallelCaps()
	}
	return engine.ParallelCaps{}
}

// AdvanceWindow implements engine.WindowAdvancer.
func (tc *tracedController) AdvanceWindow(window, nextJob int) {
	if wa, ok := tc.inner.(engine.WindowAdvancer); ok {
		defer tc.t.core.add(&tc.t.core.otherNs, time.Now())
		wa.AdvanceWindow(window, nextJob)
	}
}

// SnapshotState implements engine.StateSnapshotter. A wrapped controller
// without snapshots yields no state, which the engine treats exactly as
// a controller that does not implement the interface.
func (tc *tracedController) SnapshotState() ([]byte, error) {
	if ss, ok := tc.inner.(engine.StateSnapshotter); ok {
		defer tc.t.core.add(&tc.t.core.otherNs, time.Now())
		return ss.SnapshotState()
	}
	return nil, nil
}

// RestoreState implements engine.StateSnapshotter. The engine restores
// only state SnapshotState produced, so a wrapped controller without
// snapshots is never asked.
func (tc *tracedController) RestoreState(data []byte) error {
	if ss, ok := tc.inner.(engine.StateSnapshotter); ok {
		defer tc.t.core.add(&tc.t.core.otherNs, time.Now())
		return ss.RestoreState(data)
	}
	return errNoSnapshots
}

// RepairPlan implements engine.PlanRepairer.
func (tc *tracedController) RepairPlan(window int, emit func(eventlog.Event)) {
	if pr, ok := tc.inner.(engine.PlanRepairer); ok {
		defer tc.t.core.add(&tc.t.core.otherNs, time.Now())
		pr.RepairPlan(window, emit)
	}
}
