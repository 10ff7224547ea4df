package harness

// RunThroughputBench backs blazebench -throughput: the columnar hot-path benchmark. It pumps
// PageRank-shaped partitions (4096 vertices of out-degree 8 routed to 8
// reducers) through the per-task data plane — operator kernel, shuffle
// route, map-side combine — on the row loop and on the batched loop, at
// 1 and 8 worker goroutines, and reports records/s and allocations per
// record for each. It then runs the full engine on PageRank and k-means
// at Parallelism 1 and 8, asserts virtual-time metrics and event logs
// are byte-equal, and counts the tasks that ran on the columnar loop
// (BENCH_throughput.json). Row-against-columnar identity of whole runs
// is pinned by the seed goldens (identity_golden_test.go).

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"blaze"
	"blaze/internal/dataflow"
	"blaze/internal/graphx"
)

const (
	tputPRVerts = 4096
	tputPRDeg   = 8
	tputPRParts = 8

	tputTargetSpeedup    = 5.0
	tputTargetAllocRatio = 10.0
)

type tputEntry struct {
	Workload             string  `json:"workload"`
	Parallelism          int     `json:"parallelism"`
	RecordsPerTask       int     `json:"records_per_task"`
	Tasks                int     `json:"tasks"`
	RowRecordsPerSec     float64 `json:"row_records_per_sec"`
	BatchRecordsPerSec   float64 `json:"batch_records_per_sec"`
	Speedup              float64 `json:"speedup"`
	RowAllocsPerRecord   float64 `json:"row_allocs_per_record"`
	BatchAllocsPerRecord float64 `json:"batch_allocs_per_record"`
	AllocRatio           float64 `json:"alloc_ratio"`
}

// tputIdentity compares one workload's default engine run at
// Parallelism 8 against the same run at Parallelism 1.
type tputIdentity struct {
	Workload         string `json:"workload"`
	MetricsEqual     bool   `json:"metrics_equal"`
	EventsEqual      bool   `json:"events_equal"`
	VecTasksExecuted int64  `json:"vec_tasks_executed"`
}

type tputReport struct {
	Cores            int            `json:"cores"`
	Entries          []tputEntry    `json:"entries"`
	Identity         []tputIdentity `json:"identity"`
	VecTasksExecuted int64          `json:"vec_tasks_executed"`
	TargetSpeedup    float64        `json:"target_speedup"`
	TargetAllocRatio float64        `json:"target_alloc_ratio"`
	TargetsMet       bool           `json:"targets_met"`
	P1P8Identical    bool           `json:"p1_p8_identical"`
	Note             string         `json:"note"`
}

// mergeRowsByKey is the row loop's map-side combine shape: map-indexed
// accumulation of boxed float64 values in first-seen key order.
func mergeRowsByKey(recs []dataflow.Record) []dataflow.Record {
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
	return out
}

// prRowTask runs one PageRank partition through the row data plane:
// contributions FlatMap, hash route to reducers, per-bucket combine.
func prRowTask(recs []dataflow.Record) int {
	contribs := graphx.BenchContribsRow(recs)
	buckets := make([][]dataflow.Record, tputPRParts)
	for _, r := range contribs {
		p := dataflow.HashPartition(r.Key, tputPRParts)
		buckets[p] = append(buckets[p], r)
	}
	n := 0
	for _, b := range buckets {
		n += len(mergeRowsByKey(b))
	}
	return n
}

// prBatchTask runs the same partition through the batched data plane.
func prBatchTask(in *dataflow.Batch, router dataflow.Router) int {
	contribs := graphx.BenchContribsBatch(in)
	buckets := make([]*dataflow.Batch, tputPRParts)
	for p := range buckets {
		buckets[p] = dataflow.NewBatch(contribs.Len() / tputPRParts)
	}
	for j := 0; j < contribs.Len(); j++ {
		buckets[router.Bucket(contribs.Keys[j])].AppendFromBatch(contribs, j)
	}
	contribs.Release()
	n := 0
	for _, b := range buckets {
		merged := dataflow.MergeBatchByKeyF64(b, func(a, c float64) float64 { return a + c })
		n += merged.Len()
		merged.Release()
		b.Release()
	}
	return n
}

// measureTput runs `task` on `par` goroutines, `tasks` invocations in
// total, and returns records/s and allocations per record.
func measureTput(par, tasks, recordsPerTask int, task func()) (recPerSec, allocsPerRec float64) {
	for i := 0; i < 3; i++ {
		task() // warm pools and code paths
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		n := tasks / par
		if w < tasks%par {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				task()
			}
		}(n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	total := float64(tasks * recordsPerTask)
	return total / elapsed.Seconds(), float64(m1.Mallocs-m0.Mallocs) / total
}

// identityRun executes one full default engine run and returns its
// result and event log.
func identityRun(wl blaze.WorkloadID, par int) (*blaze.Result, *blaze.EventLog) {
	log := blaze.NewEventLog()
	res, err := blaze.Run(blaze.RunConfig{
		System:      blaze.SysBlaze,
		Workload:    wl,
		Executors:   4,
		Scale:       0.5,
		Parallelism: par,
		EventLog:    log,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "blazebench: %v\n", err)
		os.Exit(1)
	}
	return res, log
}

func eventsEqual(a, b *blaze.EventLog) bool {
	ae, be := a.Events(), b.Events()
	if len(ae) != len(be) {
		return false
	}
	for i := range ae {
		if ae[i] != be[i] {
			return false
		}
	}
	return true
}

func RunThroughputBench(path, cpuProfile, memProfile string) {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "blazebench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "blazebench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	rep := tputReport{
		Cores:            runtime.NumCPU(),
		TargetSpeedup:    tputTargetSpeedup,
		TargetAllocRatio: tputTargetAllocRatio,
		Note: "per-task data plane (kernel + route + combine) row vs. batch; " +
			"identity entries compare full default engine runs at P8 against P1",
	}

	// PageRank pipeline.
	prRecs, _ := graphx.BenchPRPartition(tputPRVerts, tputPRDeg)
	prBatch := dataflow.FromRecords(prRecs)
	router := dataflow.NewRouter(tputPRParts)
	const prTasks = 192

	rep.TargetsMet = true
	for _, par := range []int{1, 8} {
		rowRPS, rowAPR := measureTput(par, prTasks, tputPRVerts, func() { prRowTask(prRecs) })
		batchRPS, batchAPR := measureTput(par, prTasks, tputPRVerts, func() { prBatchTask(prBatch, router) })
		e := tputEntry{
			Workload:             "pr",
			Parallelism:          par,
			RecordsPerTask:       tputPRVerts,
			Tasks:                prTasks,
			RowRecordsPerSec:     rowRPS,
			BatchRecordsPerSec:   batchRPS,
			Speedup:              batchRPS / rowRPS,
			RowAllocsPerRecord:   rowAPR,
			BatchAllocsPerRecord: batchAPR,
			AllocRatio:           rowAPR / batchAPR,
		}
		if e.Speedup < tputTargetSpeedup || e.AllocRatio < tputTargetAllocRatio {
			rep.TargetsMet = false
		}
		rep.Entries = append(rep.Entries, e)
		fmt.Printf("%-8s P%d  row %10.0f rec/s %7.2f allocs/rec   batch %10.0f rec/s %7.4f allocs/rec   speedup %5.2fx  allocs %6.1fx\n",
			e.Workload, par, rowRPS, rowAPR, batchRPS, batchAPR, e.Speedup, e.AllocRatio)
	}

	// Full engine, default runs: P8 must be bit-identical to P1, and the
	// stages with batch kernels must actually run columnar.
	rep.P1P8Identical = true
	for _, wl := range []blaze.WorkloadID{blaze.PR, blaze.KMeans} {
		vecBefore := blaze.VecTasksExecuted()
		seqRes, seqLog := identityRun(wl, 1)
		parRes, parLog := identityRun(wl, 8)
		id := tputIdentity{
			Workload:         string(wl),
			MetricsEqual:     blaze.MetricsEqualDeterministic(seqRes.Metrics, parRes.Metrics),
			EventsEqual:      eventsEqual(seqLog, parLog),
			VecTasksExecuted: blaze.VecTasksExecuted() - vecBefore,
		}
		if !id.MetricsEqual || !id.EventsEqual {
			rep.P1P8Identical = false
		}
		rep.VecTasksExecuted += id.VecTasksExecuted
		rep.Identity = append(rep.Identity, id)
		fmt.Printf("%-8s P1 vs P8  metrics-equal %v  events-equal %v  columnar tasks %d\n",
			wl, id.MetricsEqual, id.EventsEqual, id.VecTasksExecuted)
	}
	if rep.VecTasksExecuted == 0 {
		fmt.Fprintln(os.Stderr, "blazebench: default runs executed zero columnar tasks; no stage chose the columnar loop")
		os.Exit(1)
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "blazebench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "blazebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("(targets: >=%.0fx records/s, >=%.0fx fewer allocs; met=%v; P1/P8 identical=%v; %d columnar tasks; report written to %s)\n",
		tputTargetSpeedup, tputTargetAllocRatio, rep.TargetsMet, rep.P1P8Identical, rep.VecTasksExecuted, path)

	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "blazebench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "blazebench: %v\n", err)
			os.Exit(1)
		}
	}
}
