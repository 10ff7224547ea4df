package main

import (
	"testing"

	"blaze"
	"blaze/internal/core"
	"blaze/internal/engine"
	"blaze/internal/eventlog"
)

// TestSeededSpecsReproduceBuiltins holds the registered copies to the
// built-in workloads: seed 0's first variant is the built-in input, so
// its metrics equal the built-in run's, and another seed draws another
// input.
func TestSeededSpecsReproduceBuiltins(t *testing.T) {
	other := variantOffsets(1)[0]
	batch := []struct {
		builtin   blaze.WorkloadID
		specFor   func(off int64) blaze.WorkloadSpec
		realBytes bool
	}{
		{blaze.PR, prWorkloadSpec, false},
		{blaze.SVDPP, svdppWorkloadSpec, true},
	}
	for _, c := range batch {
		run := func(id blaze.WorkloadID) *blaze.Metrics {
			t.Helper()
			r, err := blaze.Run(blaze.RunConfig{System: blaze.SysBlaze, Workload: id, Parallelism: 2, RealBytes: c.realBytes})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			return r.Metrics
		}
		register := func(off int64) blaze.WorkloadID {
			t.Helper()
			spec, err := registerWorkload(c.specFor(off))
			if err != nil {
				t.Fatal(err)
			}
			return spec.ID
		}
		want := run(c.builtin)
		if got := run(register(variantOffsets(0)[0])); !blaze.MetricsEqualDeterministic(got, want) {
			t.Errorf("%s: seed 0 metrics differ from the built-in workload (ACT %v, want %v)", c.builtin, got.ACT, want.ACT)
		}
		if got := run(register(other)); got.ACT == want.ACT {
			t.Errorf("%s: seed 1 left ACT unchanged at %v", c.builtin, got.ACT)
		}
	}

	runStream := func(id blaze.StreamWorkloadID) *blaze.StreamResult {
		t.Helper()
		r, err := blaze.RunStream(blaze.StreamConfig{
			System: blaze.SysBlaze, Workload: id, Windows: 3, Parallelism: 2, MemoryPerExecutor: 1 << 20,
		})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return r
	}
	registerStream := func(off int64) blaze.StreamWorkloadID {
		t.Helper()
		spec, err := registerStreamWorkload(streamWorkloadSpec(off))
		if err != nil {
			t.Fatal(err)
		}
		return spec.ID
	}
	want := runStream(blaze.StreamPR)
	got := runStream(registerStream(variantOffsets(0)[0]))
	if !blaze.MetricsEqualDeterministic(got.Metrics, want.Metrics) {
		t.Errorf("stream: seed 0 metrics differ from the built-in workload (ACT %v, want %v)", got.ACT(), want.ACT())
	}
	for i := range want.Windows {
		if !got.Windows[i].EqualDeterministic(want.Windows[i]) {
			t.Errorf("stream: seed 0 window %d differs from the built-in workload", i+1)
		}
	}
	if got := runStream(registerStream(other)); got.ACT() == want.ACT() {
		t.Errorf("stream: seed 1 left ACT unchanged at %v", got.ACT())
	}
}

// optionalController implements the engine's optional controller
// interfaces and records which of them were called.
type optionalController struct {
	engine.Controller
	caps   engine.ParallelCaps
	called map[string]bool
}

func (o *optionalController) ParallelCaps() engine.ParallelCaps { return o.caps }
func (o *optionalController) AdvanceWindow(window, nextJob int) { o.called["AdvanceWindow"] = true }
func (o *optionalController) SnapshotState() ([]byte, error) {
	o.called["SnapshotState"] = true
	return []byte("state"), nil
}
func (o *optionalController) RestoreState([]byte) error {
	o.called["RestoreState"] = true
	return nil
}
func (o *optionalController) RepairPlan(int, func(eventlog.Event)) { o.called["RepairPlan"] = true }

// TestTracedControllerForwardsOptionalInterfaces checks that the
// decorator passes every optional engine interface through: a dropped
// ParallelCaps would put every traced stage on the sequential loop
// without changing a single metric.
func TestTracedControllerForwardsOptionalInterfaces(t *testing.T) {
	blz := core.NewBlaze()
	var ctl engine.Controller = newTracedController(blz, newTracer(""))
	pc, ok := ctl.(engine.ParallelCapable)
	if !ok || pc.ParallelCaps() != blz.ParallelCaps() {
		t.Errorf("ParallelCaps not forwarded from the Blaze controller")
	}
	if _, ok := ctl.(engine.WindowAdvancer); !ok {
		t.Errorf("decorator does not implement engine.WindowAdvancer")
	}
	if _, ok := ctl.(engine.StateSnapshotter); !ok {
		t.Errorf("decorator does not implement engine.StateSnapshotter")
	}
	if _, ok := ctl.(engine.PlanRepairer); !ok {
		t.Errorf("decorator does not implement engine.PlanRepairer")
	}

	inner := &optionalController{caps: engine.ParallelCaps{Safe: true, RemoteReads: true}, called: map[string]bool{}}
	tc := newTracedController(inner, newTracer(""))
	if tc.ParallelCaps() != inner.caps {
		t.Errorf("ParallelCaps = %+v, want %+v", tc.ParallelCaps(), inner.caps)
	}
	tc.AdvanceWindow(2, 5)
	if data, err := tc.SnapshotState(); err != nil || string(data) != "state" {
		t.Errorf("SnapshotState = %q, %v", data, err)
	}
	if err := tc.RestoreState([]byte("state")); err != nil {
		t.Errorf("RestoreState: %v", err)
	}
	tc.RepairPlan(2, func(eventlog.Event) {})
	for _, m := range []string{"AdvanceWindow", "SnapshotState", "RestoreState", "RepairPlan"} {
		if !inner.called[m] {
			t.Errorf("%s not forwarded", m)
		}
	}

	// A controller without the optional interfaces: the decorator must
	// behave as the engine does for such a controller.
	bare := newTracedController(struct{ engine.Controller }{}, newTracer(""))
	if caps := bare.ParallelCaps(); caps != (engine.ParallelCaps{}) {
		t.Errorf("bare ParallelCaps = %+v, want zero (sequential)", caps)
	}
	bare.AdvanceWindow(2, 5)
	bare.RepairPlan(2, func(eventlog.Event) {})
	if data, err := bare.SnapshotState(); data != nil || err != nil {
		t.Errorf("bare SnapshotState = %q, %v; want no state", data, err)
	}
}

// TestTracedRunsMatchUntraced runs each workload's fidelity check: the
// traced operation reproduces the untraced facade call's metrics and
// event log byte for byte, and on pr-blaze it still runs stages on
// parallel workers.
func TestTracedRunsMatchUntraced(t *testing.T) {
	for _, name := range sortedKeys(workloadSetups) {
		t.Run(name, func(t *testing.T) {
			b, err := workloadSetups[name](0, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			if _, err := b.fidelity(); err != nil {
				t.Fatal(err)
			}
			tr := newTracer(b.sourcePrefix())
			lt := &layerTotals{}
			for i := 0; i < b.opsPerRound(); i++ {
				if _, err := b.nextTraced(tr, lt); err != nil {
					t.Fatal(err)
				}
			}
			if tr.tasks.Load() == 0 || tr.core.calls.Load() == 0 || tr.sourceComputes.Load() == 0 {
				t.Errorf("tracer saw tasks=%d core calls=%d source computes=%d, want all > 0",
					tr.tasks.Load(), tr.core.calls.Load(), tr.sourceComputes.Load())
			}
			if name == "pr-blaze" && tr.peakInFlight.Load() < 2 {
				t.Errorf("traced pr-blaze never ran two tasks at once: the traced run lost the parallel loop")
			}
			if name == "stream-pr-durable" && lt.checkpointBlocks == 0 {
				t.Errorf("traced stream committed no checkpoint blocks")
			}
		})
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); v != 90 || p != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, p)
	}
	if v, p := tail(xs[:5]); v != 5 || p != 100 {
		t.Errorf("tail of 1..5 = %v at p%v, want the maximum", v, p)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestCalibratorAllocatesNothing keeps the calibration job off the heap,
// so timing it between operations leaves their GC pacing alone.
func TestCalibratorAllocatesNothing(t *testing.T) {
	c := newCalibrator()
	if n := testing.AllocsPerRun(5, func() { c.time() }); n != 0 {
		t.Errorf("calibration job allocates %v times per run, want 0", n)
	}
}
