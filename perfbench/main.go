// Command perfbench is the repository benchmark: it times whole
// blaze.Run and Session operations on one workload from a single
// closed-loop client and checks every result against a reference.
//
//	perfbench --workload pr-blaze --seed 0 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (set-up time, median
// and tail operation latency, CPU and heap allocation per operation,
// times scaled to a reference host speed; see calib.go); with --trace 1 it alternates untraced and traced operations and
// reports the per-layer metrics of the traced ones. Each metric prints
// on its own line with its unit; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. See
// README.md for the workloads and the layer map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"blaze"
)

func main() { os.Exit(run(os.Args[1:])) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// maxReportedErrors caps the per-operation failures echoed to stderr.
const maxReportedErrors = 5

// setupRepeats is how many fresh processes time the set-up; setup_s is
// their median.
const setupRepeats = 3

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: pr-blaze, svdpp-blaze-realbytes or stream-pr-durable")
	seed := fs.Int64("seed", 0, "input seed, added to the built-in generator seed (0 reproduces the built-in inputs)")
	seconds := fs.Float64("seconds", 10, "how long the closed loop runs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	setupOnly := fs.Bool("setup-only", false, "set up, print \"ready\" and exit (used to time set-up)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloadSetups[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload in %s, --trace 0|1 and --seconds > 0\n", workloadNames())
		return 2
	}
	par := min(2, runtime.NumCPU())
	b, err := setup(*seed, par)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up %s: %v\n", *workload, err)
		return 1
	}
	defer b.close()
	if *setupOnly {
		fmt.Println("ready")
		return 0
	}

	d := time.Duration(*seconds * float64(time.Second))
	host := map[string]any{
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"gogc":         gogc(),
		"calib_ms_ref": refCalibMs,
	}
	var rep report
	var notes []string
	if *trace == 0 {
		var calMedian float64
		rep, calMedian, notes = timed(b, d)
		setups, err := timeSetups(*workload, *seed, setupRepeats)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: timing set-up: %v\n", err)
			return 1
		}
		rep.Metrics["setup_s"] = metric{median(setups) * refCalibMs / calMedian, "s"}
		notes = append(notes, fmt.Sprintf("setup_s is the median of %d set-ups in fresh processes, scaled alike: unscaled %v s", len(setups), setups))
		host["calib_ms"] = calMedian
	} else {
		rep, notes = traced(b, d, par)
	}

	facts := map[string]any{"workload": *workload, "run": b.facts(), "host": host}
	out := bufio.NewWriter(os.Stdout)
	for _, n := range notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Fprintf(out, "%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "%-28s %14.6g %s\n", "failed_frac", float64(rep.Failed)/float64(max(rep.Attempted, 1)), "frac")
	writeJSONLine(out, facts)
	writeJSONLine(out, rep)
	if err := out.Flush(); err != nil {
		return 1
	}
	return 0
}

// timed runs the untraced closed loop for d and reports the end-to-end
// metrics other than setup_s, with the times scaled to the reference
// host speed, and the calibration median it scaled by.
func timed(b bench, d time.Duration) (report, float64, []string) {
	cal := newCalibrator()
	var walls, calMs []float64
	var calUsed processCounters
	attempted, failed := 0, 0
	c0 := readCounters()
	start := time.Now()
	for time.Since(start) < d {
		k0 := readCounters()
		calMs = append(calMs, ms(cal.time()))
		calUsed = calUsed.add(readCounters().sub(k0))
		wall, err := b.next()
		attempted++
		walls = append(walls, ms(wall))
		if err != nil {
			failed++
			logFailure(failed, err)
		}
	}
	used := readCounters().sub(c0).sub(calUsed)
	b.finish()
	n := float64(attempted)
	calMedian := median(calMs)
	f := refCalibMs / calMedian
	p50, cpu := median(walls), ms(used.cpu)/n
	tailV, tailP := tail(walls)
	return report{
			Correct: failed == 0, Attempted: attempted, Failed: failed,
			Metrics: map[string]metric{
				"op_ms.p50":       {p50 * f, "ms"},
				"op_ms.tail":      {tailV * f, "ms"},
				"cpu_ms_per_op":   {cpu * f, "ms"},
				"alloc_mb_per_op": {used.allocB / n / (1 << 20), "MB"},
			},
		}, calMedian, []string{
			fmt.Sprintf("op_ms.tail is the p%.1f operation latency of %d operations (ten slower ones beyond it)", tailP, attempted),
			fmt.Sprintf("times are scaled by %.4f = %g ms / %.4f ms, the calibration job's median over %d runs between operations", f, refCalibMs, calMedian, len(calMs)),
			fmt.Sprintf("unscaled: op_ms.p50 %.4f ms, op_ms.tail %.4f ms, cpu_ms_per_op %.4f ms", p50, tailV, cpu),
		}
}

// traced alternates rounds of untraced and traced operations for d,
// checks the traced path's fidelity, times the standalone layer calls
// and reports the per-layer metrics per traced operation.
func traced(b bench, d time.Duration, par int) (report, []string) {
	attempted, failed := 0, 0
	fail := func(err error) {
		failed++
		logFailure(failed, err)
	}
	eventsPerOp, err := b.fidelity()
	attempted++
	if err != nil {
		fail(fmt.Errorf("fidelity: %w", err))
	}

	t := newTracer(b.sourcePrefix())
	lt := &layerTotals{}
	var plainWalls []float64
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < b.opsPerRound(); i++ {
			wall, err := b.next()
			attempted++
			plainWalls = append(plainWalls, ms(wall))
			if err != nil {
				fail(err)
			}
		}
		for i := 0; i < b.opsPerRound(); i++ {
			c0 := readCounters()
			wall, err := b.nextTraced(t, lt)
			c := readCounters().sub(c0)
			attempted++
			lt.ops++
			lt.walls = append(lt.walls, ms(wall))
			lt.gcCycles += c.gcCycles
			lt.gcCPUs += c.gcCPUSecs
			if err != nil {
				fail(err)
			}
		}
	}
	b.finish()

	// Standalone calls into the input generator and the profiler.
	var inputMs, profileMs []float64
	spec, profiled := b.profileSpec()
	for i := 0; i < 3; i++ {
		s := time.Now()
		b.generateInput()
		inputMs = append(inputMs, ms(time.Since(s)))
		if profiled {
			s = time.Now()
			blaze.ProfileWorkload(spec, profileScale)
			profileMs = append(profileMs, ms(time.Since(s)))
		}
	}
	partMs := ms(t.sourcePartitionCost())

	n := float64(lt.ops)
	perOp := func(x int64) float64 { return float64(x) / n }
	perOpMs := func(ns int64) float64 { return float64(ns) / n / 1e6 }
	var wallSum float64
	for _, w := range lt.walls {
		wallSum += w
	}
	jobMs := perOpMs(t.jobNs.Load())
	busyMs := perOpMs(t.busyNs.Load())
	sourceComputes := perOp(t.sourceComputes.Load())
	estMs := sourceComputes * partMs
	selfMs := busyMs - perOpMs(t.core.taskNs()) - perOpMs(lt.storageNs()) - estMs
	util := 0.0
	if jobMs > 0 {
		util = busyMs / (jobMs * float64(par))
	}
	accesses := lt.memHits + lt.diskHits + lt.misses
	hitRatio := 0.0
	if accesses > 0 {
		hitRatio = float64(lt.memHits) / float64(accesses)
	}
	overhead := median(lt.walls)/median(plainWalls) - 1

	m := map[string]metric{
		"engine.jobs":         {perOp(t.jobs.Load()), "count"},
		"engine.tasks":        {perOp(t.tasks.Load()), "count"},
		"engine.fetches":      {perOp(t.fetches.Load()), "count"},
		"engine.job_ms":       {jobMs, "ms"},
		"engine.task_busy_ms": {busyMs, "ms"},
		"engine.driver_ms":    {wallSum/n - jobMs, "ms"},
		"engine.worker_util":  {util, "frac"},
		"engine.task_self_ms": {selfMs, "ms"},

		"core.place_ms":     {perOpMs(t.core.placeNs.Load()), "ms"},
		"core.victims_ms":   {perOpMs(t.core.victimsNs.Load()), "ms"},
		"core.observe_ms":   {perOpMs(t.core.observeNs.Load()), "ms"},
		"core.job_start_ms": {perOpMs(t.core.jobStartNs.Load()), "ms"},
		"core.stage_end_ms": {perOpMs(t.core.stageEndNs.Load()), "ms"},
		"core.calls":        {perOp(t.core.calls.Load()), "count"},
		"core.profile_ms":   {median(profileMs), "ms"},

		"datagen.input_ms":        {median(inputMs), "ms"},
		"datagen.source_computes": {sourceComputes, "count"},
		"datagen.est_ms":          {estMs, "ms"},

		"storage.encode_ms":     {perOpMs(lt.encodeNs), "ms"},
		"storage.decode_ms":     {perOpMs(lt.decodeNs), "ms"},
		"storage.disk_write_ms": {perOpMs(lt.writeNs), "ms"},
		"storage.disk_read_ms":  {perOpMs(lt.readNs), "ms"},
		"storage.bytes":         {perOp(lt.storageBytes), "bytes"},
		"storage.mem_hit_ratio": {hitRatio, "frac"},
		"storage.evictions":     {perOp(lt.evictions), "count"},
		"storage.spills":        {perOp(lt.spills), "count"},

		"ilp.solves":       {perOp(lt.ilpSolves), "count"},
		"ilp.nodes":        {perOp(lt.ilpNodes), "count"},
		"ilp.solve_ms":     {perOpMs(lt.ilpSolveNs), "ms"},
		"ilp.delta_solves": {perOp(lt.ilpDeltaSolves), "count"},

		"session.submit_ms":         {perOpMs(lt.submitNs), "ms"},
		"session.boundary_ms":       {perOpMs(lt.boundaryNs), "ms"},
		"checkpoint.ms":             {perOpMs(lt.checkpointNs), "ms"},
		"checkpoint.bytes":          {perOp(lt.checkpointBytes), "bytes"},
		"checkpoint.blocks":         {perOp(lt.checkpointBlocks), "count"},
		"stream.partitions_retired": {perOp(lt.retired), "count"},
		"eventlog.events":           {eventsPerOp, "count"},
		"gc.cycles":                 {lt.gcCycles / n, "count"},
		"gc.cpu_ms":                 {lt.gcCPUs * 1e3 / n, "ms"},
		"trace.overhead_frac":       {overhead, "frac"},
	}
	notes := []string{
		fmt.Sprintf("per-layer values are means per traced operation over %d traced operations (%d untraced alternating)", lt.ops, len(plainWalls)),
		fmt.Sprintf("traced op_ms.p50 %.3f ms, untraced op_ms.p50 %.3f ms", median(lt.walls), median(plainWalls)),
		fmt.Sprintf("datagen.est_ms is computed, not measured: datagen.source_computes x %.4f ms, the standalone cost of one source partition through the program's source function", partMs),
		"engine.task_self_ms is computed: engine.task_busy_ms minus core task-path calls, storage meter wall time and datagen.est_ms",
	}
	return report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, notes
}

// timeSetups runs the set-up n times, each in a fresh process of this
// binary, and returns each one's seconds from process start to ready.
func timeSetups(workload string, seed int64, n int) ([]float64, error) {
	// run.sh starts the benchmark by its path, so os.Args[0] names
	// this binary.
	exe := os.Args[0]
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--setup-only", "--workload", workload, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, readErr := bufio.NewReader(pipe).ReadString('\n')
		elapsed := time.Since(start)
		_, _ = io.Copy(io.Discard, pipe) // drain so the child never blocks on a full pipe
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		if readErr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up process printed %q (%v)", line, readErr)
		}
		out = append(out, elapsed.Seconds())
	}
	return out, nil
}

func logFailure(n int, err error) {
	if n <= maxReportedErrors {
		fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
	}
}

func writeJSONLine(w io.Writer, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of numbers and strings reach here
	}
	fmt.Fprintf(w, "%s\n", data)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100"
}

func workloadNames() string {
	return strings.Join(sortedKeys(workloadSetups), ", ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
