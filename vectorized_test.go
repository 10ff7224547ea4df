package blaze_test

import (
	"testing"

	"blaze"
)

// columnarTasks runs cfg and returns how many of its tasks ran on the
// columnar loop. Nothing in a run's metrics or events reveals which
// loop ran — that is the point — so the process-global counter is the
// witness.
func columnarTasks(t *testing.T, cfg blaze.RunConfig) int64 {
	t.Helper()
	before := blaze.VecTasksExecuted()
	if _, err := blaze.Run(cfg); err != nil {
		t.Fatal(err)
	}
	return blaze.VecTasksExecuted() - before
}

// TestVectorizedPathEngages guards the identity goldens against passing
// vacuously: a default PageRank run, whose stages have batch kernels,
// must execute tasks on the columnar loop.
func TestVectorizedPathEngages(t *testing.T) {
	if got := columnarTasks(t, blaze.RunConfig{System: blaze.SysBlaze, Workload: blaze.PR}); got == 0 {
		t.Fatal("default PageRank run executed zero columnar tasks; no stage chose the columnar loop")
	}
}

// TestSVDPPStaysOnRows pins the other side of the loop choice: SVD++
// has no batch kernels, so default runs, virtual and RealBytes, execute
// no columnar task. On SVD++ the columnar loop costs a third more
// allocation end to end; this fails if a kernel is re-attached.
func TestSVDPPStaysOnRows(t *testing.T) {
	for _, real := range []bool{false, true} {
		cfg := blaze.RunConfig{System: blaze.SysBlaze, Workload: blaze.SVDPP, RealBytes: real}
		if got := columnarTasks(t, cfg); got != 0 {
			t.Errorf("SVD++ run (RealBytes=%v) executed %d columnar tasks, want 0", real, got)
		}
	}
}
