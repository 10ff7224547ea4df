package blaze_test

// Seed-golden identity oracle. Every case below is a full engine run
// whose deterministic outcome — ACT, a digest of the metrics
// MetricsEqualDeterministic compares, the SHA-256 of the JSON event log
// and, for streams, the per-window stats — is pinned in
// testdata/identity_golden.json. The goldens were recorded with every
// stage on the row task loop. Whichever loop the engine picks for a
// stage, the outcome must not move: the columnar loop changes only
// wall-clock time, and one missed mirror edit in
// internal/engine/vectorized.go moves a digest.
//
// Regenerate (only when a change is meant to alter virtual-time
// behaviour, and say so in the change) with
//
//	go test -run 'TestVectorized' -update .

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"blaze"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/identity_golden.json from the current engine")

const goldenPath = "testdata/identity_golden.json"

// identityGolden is one case's pinned outcome.
type identityGolden struct {
	ACT     time.Duration       `json:"act"`
	Metrics string              `json:"metrics_sha256"`
	Events  string              `json:"events_sha256"`
	Windows []blaze.WindowStats `json:"windows,omitempty"`
}

var goldens struct {
	sync.Mutex
	once sync.Once
	m    map[string]identityGolden
}

func loadGoldens(t *testing.T) map[string]identityGolden {
	t.Helper()
	goldens.once.Do(func() {
		goldens.m = map[string]identityGolden{}
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			if !os.IsNotExist(err) || !*updateGoldens {
				t.Fatalf("reading goldens: %v", err)
			}
			return
		}
		if err := json.Unmarshal(data, &goldens.m); err != nil {
			t.Fatalf("parsing %s: %v", goldenPath, err)
		}
	})
	return goldens.m
}

// metricsDigest hashes the fields MetricsEqualDeterministic compares.
// Which fields those are is derived from MetricsEqualDeterministic
// itself: a field whose zeroing leaves the comparison true is excluded
// from the digest, so the two cannot drift apart.
func metricsDigest(t *testing.T, m *blaze.Metrics) string {
	t.Helper()
	var det blaze.Metrics
	det.CopyFrom(m)
	v := reflect.ValueOf(&det).Elem()
	for i := 0; i < v.NumField(); i++ {
		if !v.Type().Field(i).IsExported() || v.Field(i).IsZero() {
			continue
		}
		var probe blaze.Metrics
		probe.CopyFrom(m)
		f := reflect.ValueOf(&probe).Elem().Field(i)
		f.Set(reflect.Zero(f.Type()))
		if blaze.MetricsEqualDeterministic(m, &probe) {
			v.Field(i).Set(reflect.Zero(v.Field(i).Type()))
		}
	}
	data, err := json.Marshal(&det)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func eventsDigest(t *testing.T, log *blaze.EventLog) string {
	t.Helper()
	h := sha256.New()
	if err := log.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkGolden compares one run's outcome against the pinned golden for
// name, or records it under -update.
func checkGolden(t *testing.T, name string, res *blaze.Result, log *blaze.EventLog, windows []blaze.WindowStats) {
	t.Helper()
	got := identityGolden{
		ACT:     res.Metrics.ACT,
		Metrics: metricsDigest(t, res.Metrics),
		Events:  eventsDigest(t, log),
	}
	for _, w := range windows {
		w.ILPDeltaSolveTime, w.ILPColdSolveTime = 0, 0
		got.Windows = append(got.Windows, w)
	}
	m := loadGoldens(t)
	goldens.Lock()
	defer goldens.Unlock()
	if *updateGoldens {
		m[name] = got
		writeGoldens(t, m)
		return
	}
	want, ok := m[name]
	if !ok {
		t.Fatalf("%s: no golden; record one with -update", name)
	}
	if got.ACT != want.ACT {
		t.Errorf("%s: ACT %v, golden %v", name, got.ACT, want.ACT)
	}
	if got.Metrics != want.Metrics {
		t.Errorf("%s: deterministic metrics digest %s, golden %s\nmetrics: %+v", name, got.Metrics, want.Metrics, res.Metrics)
	}
	if got.Events != want.Events {
		t.Errorf("%s: event log digest %s, golden %s (%d events)", name, got.Events, want.Events, log.Len())
	}
	if len(got.Windows) != len(want.Windows) {
		t.Fatalf("%s: %d windows, golden %d", name, len(got.Windows), len(want.Windows))
	}
	for i := range got.Windows {
		if !got.Windows[i].EqualDeterministic(want.Windows[i]) {
			t.Errorf("%s: window %d stats differ:\ngot:    %+v\ngolden: %+v", name, i, got.Windows[i], want.Windows[i])
		}
	}
}

func writeGoldens(t *testing.T, m map[string]identityGolden) {
	t.Helper()
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// goldenRun executes one batch run at Executors 4, Scale 0.25 and
// checks it against its golden.
func goldenRun(t *testing.T, name string, cfg blaze.RunConfig) *blaze.Result {
	t.Helper()
	cfg.Executors, cfg.Scale = 4, 0.25
	cfg.EventLog = blaze.NewEventLog()
	res, err := blaze.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkGolden(t, name, res, cfg.EventLog, nil)
	return res
}

// TestVectorizedIdentity pins every registered system on PageRank and
// k-means at Parallelism 1 and 8 to the row-loop goldens.
func TestVectorizedIdentity(t *testing.T) {
	for _, wl := range []blaze.WorkloadID{blaze.PR, blaze.KMeans} {
		for _, sys := range allSystems() {
			wl, sys := wl, sys
			t.Run(fmt.Sprintf("%s/%s", wl, sys), func(t *testing.T) {
				for _, par := range []int{1, 8} {
					goldenRun(t, fmt.Sprintf("%s/%s/p%d", wl, sys, par),
						blaze.RunConfig{System: sys, Workload: wl, Parallelism: par})
				}
			})
		}
	}
}

// TestVectorizedIdentitySVDPP pins the serialization-heavy workload,
// whose records mix typed factors with boxed rating lists.
func TestVectorizedIdentitySVDPP(t *testing.T) {
	for _, sys := range []blaze.SystemID{blaze.SysSparkMemDisk, blaze.SysMRD, blaze.SysBlaze} {
		sys := sys
		t.Run(string(sys), func(t *testing.T) {
			for _, par := range []int{1, 8} {
				goldenRun(t, fmt.Sprintf("svdpp/%s/p%d", sys, par),
					blaze.RunConfig{System: sys, Workload: blaze.SVDPP, Parallelism: par})
			}
		})
	}
}

// TestVectorizedIdentityUnderFaults pins PageRank with the exec-death
// and bucket-loss fault classes active: recovery (regeneration,
// recompute, fault accounting) must issue the same charges and events
// whichever loop a stage runs on. Regenerated stages always run on
// rows, so this also covers mixed row/columnar shuffle storage.
func TestVectorizedIdentityUnderFaults(t *testing.T) {
	systems := []blaze.SystemID{blaze.SysSparkMemDisk, blaze.SysMRD, blaze.SysBlaze}
	for _, class := range []blaze.FaultClass{blaze.FaultExecutorDeath, blaze.FaultBucketLoss} {
		for _, sys := range systems {
			class, sys := class, sys
			t.Run(fmt.Sprintf("%s/%s", class, sys), func(t *testing.T) {
				for _, par := range []int{1, 8} {
					fc := &blaze.FaultConfig{Seed: 7, Every: 3, Classes: []blaze.FaultClass{class}}
					res := goldenRun(t, fmt.Sprintf("faults/%s/%s/p%d", class, sys, par),
						blaze.RunConfig{System: sys, Workload: blaze.PR, Parallelism: par, Faults: fc})
					if res.Metrics.FaultsInjected == 0 {
						t.Fatal("fault schedule injected nothing; lower Every")
					}
				}
			})
		}
	}
}

// TestVectorizedIdentityRealBytes pins PageRank and SVD++ with the
// storage tier backed by real bytes, at a memory capacity small enough
// to force spills: cached and spilled partitions go through the codec
// whichever loop produced them.
func TestVectorizedIdentityRealBytes(t *testing.T) {
	for _, wl := range []blaze.WorkloadID{blaze.PR, blaze.SVDPP} {
		for _, sys := range []blaze.SystemID{blaze.SysSparkMemDisk, blaze.SysMRD, blaze.SysBlaze} {
			wl, sys := wl, sys
			t.Run(fmt.Sprintf("%s/%s", wl, sys), func(t *testing.T) {
				goldenRun(t, fmt.Sprintf("realbytes/%s/%s", wl, sys),
					blaze.RunConfig{System: sys, Workload: wl, RealBytes: true, MemoryPerExecutor: 16 * 1024})
			})
		}
	}
}

// TestVectorizedStreamIdentity pins micro-batch streaming: three
// windows of streaming PageRank under memory pressure, including the
// per-window stats and boundary events, at Parallelism 1 and 4.
func TestVectorizedStreamIdentity(t *testing.T) {
	for _, par := range []int{1, 4} {
		log := blaze.NewEventLog()
		res, err := blaze.RunStream(blaze.StreamConfig{
			Workload:          blaze.StreamPR,
			Windows:           3,
			Scale:             0.25,
			Executors:         4,
			Parallelism:       par,
			MemoryPerExecutor: 1 << 20,
			EventLog:          log,
		})
		if err != nil {
			t.Fatalf("P%d: %v", par, err)
		}
		checkGolden(t, fmt.Sprintf("stream-pr/p%d", par), &res.Result, log, res.Windows)
	}
}
