package blaze

// White-box tests for the facade internals: withDefaults, the
// buildSystem recipe table, and the ILPWindow plumbing (the regression
// test for the old int field whose documented 0 value was remapped to 1
// before it could reach the controller).

import (
	"testing"

	"blaze/internal/core"
)

func TestWithDefaults(t *testing.T) {
	d := RunConfig{}.withDefaults()
	if d.Executors != 8 {
		t.Fatalf("default Executors = %d, want 8", d.Executors)
	}
	if d.Scale != 1.0 {
		t.Fatalf("default Scale = %v, want 1.0", d.Scale)
	}
	if d.ProfileScale != 0.02 {
		t.Fatalf("default ProfileScale = %v, want 0.02", d.ProfileScale)
	}
	if d.ILPWindow != ILPWindowDefault {
		t.Fatalf("defaults must leave ILPWindow at ILPWindowDefault, got %d", d.ILPWindow)
	}

	c := RunConfig{
		Executors:    3,
		Scale:        0.5,
		ProfileScale: 0.1,
		ILPWindow:    ILPWindowCurrentJobOnly,
	}.withDefaults()
	if c.Executors != 3 || c.Scale != 0.5 || c.ProfileScale != 0.1 {
		t.Fatalf("explicit values clobbered: %+v", c)
	}
	if c.ILPWindow != ILPWindowCurrentJobOnly {
		t.Fatal("ILPWindowCurrentJobOnly must survive withDefaults (the old int field remapped 0 to 1)")
	}
}

func TestBuildSystemRecipes(t *testing.T) {
	spec, err := Workload(LR)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		sys                          SystemID
		annotated, alluxio, profiled bool
	}{
		{SysSparkMem, true, false, false},
		{SysSparkMemDisk, true, false, false},
		{SysSparkAlluxio, true, true, false},
		{SysLRC, true, false, false},
		{SysMRD, true, false, false},
		{SysLRCMem, true, false, false},
		{SysMRDMem, true, false, false},
		{SysAutoCache, false, false, true},
		{SysCostAware, false, false, true},
		{SysBlaze, false, false, true},
		{SysBlazeMem, false, false, true},
		{SysBlazeNoProfile, false, false, false},
		{PolicySystem("tinylfu"), true, false, false},
	}
	for _, tc := range tests {
		t.Run(string(tc.sys), func(t *testing.T) {
			sys, err := buildSystem(RunConfig{System: tc.sys}.withDefaults(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if sys.ctl == nil {
				t.Fatal("no controller built")
			}
			if sys.annotated != tc.annotated || sys.alluxio != tc.alluxio || sys.profiled != tc.profiled {
				t.Fatalf("spec = %+v, want annotated=%v alluxio=%v profiled=%v",
					sys, tc.annotated, tc.alluxio, tc.profiled)
			}
		})
	}
	if _, err := buildSystem(RunConfig{System: "nope"}.withDefaults(), spec); err == nil {
		t.Fatal("unknown system must error")
	}
	if _, err := buildSystem(RunConfig{System: PolicySystem("nope")}.withDefaults(), spec); err == nil {
		t.Fatal("unknown eviction policy must error")
	}
}

// TestCalibrationKeyCoversCoresAndParams is the regression test for the
// calibration-cache key: it used to cover only (workload, executors,
// scale), so a later run with a different core count or cost model
// silently reused the first run's measured peak. Every distinguishing
// input must produce its own cache entry.
func TestCalibrationKeyCoversCoresAndParams(t *testing.T) {
	spec, err := Workload(LR)
	if err != nil {
		t.Fatal(err)
	}
	entries := func() int {
		calMu.Lock()
		defer calMu.Unlock()
		return len(calCache)
	}
	base := EvalParams(spec.SerFactor)
	slower := base
	slower.SerializeBps = base.SerializeBps / 2

	before := entries()
	if _, err := calibrateMemory(spec, 4, 2, 0.05, base); err != nil {
		t.Fatal(err)
	}
	if _, err := calibrateMemory(spec, 4, 4, 0.05, base); err != nil {
		t.Fatal(err)
	}
	if _, err := calibrateMemory(spec, 4, 2, 0.05, slower); err != nil {
		t.Fatal(err)
	}
	if got := entries() - before; got != 3 {
		t.Fatalf("3 distinct (cores, params) configurations produced %d cache entries; the key aliases them", got)
	}
	// Same configuration again must hit the cache, not add an entry.
	if _, err := calibrateMemory(spec, 4, 2, 0.05, base); err != nil {
		t.Fatal(err)
	}
	if got := entries() - before; got != 3 {
		t.Fatalf("repeat calibration added an entry (now %d); key is unstable", got)
	}
}

func TestILPWindowReachesController(t *testing.T) {
	spec, err := Workload(LR)
	if err != nil {
		t.Fatal(err)
	}
	window := func(w int) int {
		t.Helper()
		sys, err := buildSystem(RunConfig{System: SysBlaze, ILPWindow: w}.withDefaults(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return sys.ctl.(*core.Controller).Window()
	}
	if got := window(ILPWindowDefault); got != 1 {
		t.Fatalf("ILPWindowDefault = %d, want the default 1", got)
	}
	if got := window(ILPWindowCurrentJobOnly); got != 0 {
		t.Fatalf("ILPWindowCurrentJobOnly = %d, want 0 (current job only)", got)
	}
	if got := window(3); got != 3 {
		t.Fatalf("ILPWindow 3 = %d, want 3", got)
	}
}
