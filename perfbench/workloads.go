package main

// The three benchmark workloads. Each is a registered copy of a built-in
// workload spec — same graphx/datagen constructors, same sizes — whose
// generator seed is derived from the benchmark's --seed. One seed names
// variantsPerSeed input variants and the closed loop cycles through
// them, so a run's figures average over several inputs rather than
// resting on the partition skew of one drawn graph. Seed 0's first
// variant is the built-in input.
//
// Every workload runs two paths over the same inputs: the untraced path
// is the public facade (blaze.Run, blaze.Session) exactly as a user
// calls it, and the traced path rebuilds the same run from the engine
// packages with the tracer attached as engine hook and controller
// decorator. The traced path must reproduce the untraced one's metrics
// and event log byte for byte (fidelity).

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"time"

	"blaze"
	"blaze/internal/checkpoint"
	"blaze/internal/core"
	"blaze/internal/dataflow"
	"blaze/internal/datagen"
	"blaze/internal/engine"
	"blaze/internal/eventlog"
	"blaze/internal/graphx"
	"blaze/internal/metrics"
	"blaze/internal/server"
)

// Built-in generator seeds of the copied workloads (blaze workloads.go
// and stream_workloads.go).
const (
	prSeed     = 1
	svdppSeed  = 5
	streamSeed = 11
)

// variantsPerSeed is how many input variants one benchmark seed names:
// seed s uses generator seeds builtin+s·K … builtin+s·K+K−1.
const variantsPerSeed = 4

// streamWindows is the number of windows per streaming session; the
// closed loop opens a fresh session after the last one.
const streamWindows = 8

// profileScale is blaze.Run's default dependency-extraction sample.
const profileScale = 0.02

// streamSerFactor is the built-in stream-PR serialization factor; the
// sessions are priced with EvalParams of it, as RunStream does.
const streamSerFactor = 2.5

// variantOffsets returns the generator-seed offsets of seed's variants.
func variantOffsets(seed int64) []int64 {
	offs := make([]int64, variantsPerSeed)
	for i := range offs {
		offs[i] = seed*variantsPerSeed + int64(i)
	}
	return offs
}

// generatorSeeds returns the generator seeds of seed's variants for a
// workload whose built-in generator seed is base.
func generatorSeeds(base, seed int64) []int64 {
	gs := variantOffsets(seed)
	for i := range gs {
		gs[i] += base
	}
	return gs
}

// bench is one workload bound to a seed, set up and ready to time.
type bench interface {
	// next runs one operation on the untraced path and reports its wall
	// time; the error is non-nil when the run failed or its result
	// differs from the reference.
	next() (time.Duration, error)
	// nextTraced runs one operation on the traced path, adding its layer
	// counters to lt.
	nextTraced(t *tracer, lt *layerTotals) (time.Duration, error)
	// opsPerRound is how many operations make one unit the trace run
	// alternates between the two paths (a whole session for streams).
	opsPerRound() int
	// fidelity runs the untraced and the traced path once each with
	// event logs and reports any difference in metrics or event log,
	// and the number of events per operation.
	fidelity() (eventsPerOp float64, err error)
	// generateInput calls the workload's input generator standalone over
	// the full input of one operation.
	generateInput() int
	// sourcePrefix names the datasets the input generator backs.
	sourcePrefix() string
	// profileSpec is the spec blaze.Run profiles before each run; false
	// for sessions, which build their lineage on the run.
	profileSpec() (blaze.WorkloadSpec, bool)
	facts() runFacts
	// finish ends any session left open by the loop, outside timing.
	finish()
	close()
}

// runFacts are the workload parameters the output records.
type runFacts struct {
	Seed           int64   `json:"seed"`
	GeneratorSeeds []int64 `json:"generator_seeds"`
	Scale          float64 `json:"scale"`
	Executors      int     `json:"executors"`
	Parallelism    int     `json:"parallelism"`
	RealBytes      bool    `json:"real_bytes"`
	Durable        bool    `json:"durable"`
}

// workloadSetups maps a benchmark workload name to its set-up.
var workloadSetups = map[string]func(seed int64, par int) (bench, error){
	"pr-blaze":              setupPR,
	"svdpp-blaze-realbytes": setupSVDPP,
	"stream-pr-durable":     setupStream,
}

// ---------------------------------------------------------------------
// Seeded workload specs: off is added to the built-in generator seed

func prGraph(off int64) datagen.GraphSpec {
	return datagen.GraphSpec{Seed: prSeed + off, Vertices: 3000, AvgDegree: 8}
}

func prWorkloadSpec(off int64) blaze.WorkloadSpec {
	cfg := func(annotate bool) graphx.PageRankConfig {
		return graphx.PageRankConfig{Graph: prGraph(off), Parts: 32, Iters: 10, Annotate: annotate}
	}
	return blaze.WorkloadSpec{
		ID: blaze.WorkloadID(fmt.Sprintf("pr-blaze-gen%d", prSeed+off)), Title: "PageRank",
		SerFactor: 2.5, MemFraction: 0.25,
		Plain:     graphx.PageRankWorkload(cfg(false)),
		Annotated: graphx.PageRankWorkload(cfg(true)),
	}
}

func svdppRatings(off int64) datagen.RatingsSpec {
	return datagen.RatingsSpec{Seed: svdppSeed + off, Users: 1500, Items: 300, ItemsPerUser: 12}
}

func svdppWorkloadSpec(off int64) blaze.WorkloadSpec {
	cfg := func(annotate bool) graphx.SVDPPConfig {
		return graphx.SVDPPConfig{Ratings: svdppRatings(off), Parts: 16, Rank: 8, Iters: 10, Annotate: annotate}
	}
	return blaze.WorkloadSpec{
		ID: blaze.WorkloadID(fmt.Sprintf("svdpp-blaze-realbytes-gen%d", svdppSeed+off)), Title: "SVD++",
		SerFactor: 3.0, MemFraction: 0.3,
		Plain:     graphx.SVDPPWorkload(cfg(false)),
		Annotated: graphx.SVDPPWorkload(cfg(true)),
	}
}

func streamGraph(off int64) datagen.GraphSpec {
	return datagen.GraphSpec{Seed: streamSeed + off, Vertices: 2000, AvgDegree: 8}
}

func streamWorkloadSpec(off int64) blaze.StreamWorkloadSpec {
	return blaze.StreamWorkloadSpec{
		ID: blaze.StreamWorkloadID(fmt.Sprintf("stream-pr-durable-gen%d", streamSeed+off)), Title: "SlidingPageRank",
		SerFactor: streamSerFactor,
		Open: func(scale float64, annotate bool) func(ctx *blaze.Context, window int) {
			cfg := graphx.PageRankStreamConfig{Graph: streamGraph(off), Parts: 32, ItersPerWindow: 3, Annotate: annotate}
			if scale != 0 && scale != 1 {
				cfg.Graph.Vertices = max(16, min(cfg.Graph.Vertices, int(float64(cfg.Graph.Vertices)*scale)))
			}
			step := graphx.PageRankStream(cfg)
			return func(ctx *blaze.Context, window int) { step(ctx, window) }
		},
	}
}

// registerWorkload registers spec unless an earlier call did.
func registerWorkload(spec blaze.WorkloadSpec) (blaze.WorkloadSpec, error) {
	if got, err := blaze.Workload(spec.ID); err == nil {
		return got, nil
	}
	return spec, blaze.RegisterWorkload(spec)
}

func registerStreamWorkload(spec blaze.StreamWorkloadSpec) (blaze.StreamWorkloadSpec, error) {
	if got, err := blaze.StreamWorkload(spec.ID); err == nil {
		return got, nil
	}
	return spec, blaze.RegisterStreamWorkload(spec)
}

// ---------------------------------------------------------------------
// Batch workloads: one operation is one blaze.Run

// batchVariant is one input variant of a batch workload.
type batchVariant struct {
	spec blaze.WorkloadSpec
	cfg  blaze.RunConfig
	// ref holds the reference metrics, computed at set-up on the
	// sequential virtual-storage path: every timed run must reproduce
	// them, which also holds the parallel and real-bytes paths to the
	// engine's bit-identity contract.
	ref *blaze.Metrics
	// mem is the calibrated MemoryPerExecutor the traced path reuses.
	mem int64
}

type batchBench struct {
	variants   []batchVariant
	seed, base int64
	prefix     string
	// gen generates the first variant's input standalone.
	gen func() int
	// plainN and tracedN count the operations each path has run; they
	// pick the variant.
	plainN, tracedN int
}

func setupPR(seed int64, par int) (bench, error) {
	g := prGraph(variantOffsets(seed)[0])
	return setupBatch(prWorkloadSpec, prSeed, seed, par, false, "pr-adj@", func() int {
		n := 0
		for v := int64(0); v < int64(g.Vertices); v++ {
			n += len(g.Neighbors(v))
		}
		return n
	})
}

func setupSVDPP(seed int64, par int) (bench, error) {
	r := svdppRatings(variantOffsets(seed)[0])
	return setupBatch(svdppWorkloadSpec, svdppSeed, seed, par, true, "svd-ratings@", func() int {
		n := 0
		for u := int64(0); u < int64(r.Users); u++ {
			items, _ := r.UserRatings(u)
			n += len(items)
		}
		return n
	})
}

func setupBatch(specFor func(off int64) blaze.WorkloadSpec, base, seed int64, par int, realBytes bool, prefix string, gen func() int) (bench, error) {
	b := &batchBench{seed: seed, base: base, prefix: prefix, gen: gen}
	for _, off := range variantOffsets(seed) {
		spec, err := registerWorkload(specFor(off))
		if err != nil {
			return nil, err
		}
		v := batchVariant{
			spec: spec,
			cfg:  blaze.RunConfig{System: blaze.SysBlaze, Workload: spec.ID, Parallelism: par, RealBytes: realBytes},
		}
		ref := v.cfg
		ref.Parallelism, ref.RealBytes = 1, false
		r, err := blaze.Run(ref)
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", spec.ID, err)
		}
		v.ref, v.mem = r.Metrics, r.MemoryPerExecutor
		b.variants = append(b.variants, v)
	}
	return b, nil
}

func (v *batchVariant) check(m *blaze.Metrics) error {
	if !blaze.MetricsEqualDeterministic(m, v.ref) {
		return fmt.Errorf("%s: metrics differ from the reference (ACT %v, want %v)", v.spec.ID, m.ACT, v.ref.ACT)
	}
	return nil
}

func (b *batchBench) next() (time.Duration, error) {
	v := &b.variants[b.plainN%len(b.variants)]
	b.plainN++
	start := time.Now()
	r, err := blaze.Run(v.cfg)
	wall := time.Since(start)
	if err != nil {
		return wall, err
	}
	return wall, v.check(r.Metrics)
}

func (b *batchBench) nextTraced(t *tracer, lt *layerTotals) (time.Duration, error) {
	v := &b.variants[b.tracedN%len(b.variants)]
	b.tracedN++
	start := time.Now()
	r, err := v.runTraced(t, nil)
	wall := time.Since(start)
	if err != nil {
		return wall, err
	}
	lt.addRun(r.Metrics, r.Storage)
	return wall, v.check(r.Metrics)
}

// runTraced is blaze.Run rebuilt with the tracer attached: the same
// profile, controller, cost model and calibrated memory, on the server
// path for virtual storage and on a standalone cluster for real bytes.
func (v *batchVariant) runTraced(t *tracer, log *eventlog.Log) (*blaze.Result, error) {
	params := blaze.EvalParams(v.spec.SerFactor)
	inner := core.NewBlaze().WithSkeleton(core.Profile(core.Workload(v.spec.Plain), profileScale))
	ctl := newTracedController(inner, t)
	res := &blaze.Result{System: v.cfg.System, Workload: v.cfg.Workload, MemoryPerExecutor: v.mem}
	if v.cfg.RealBytes {
		ctx := dataflow.NewContext()
		cl, err := engine.NewCluster(engine.Config{
			Executors:         8,
			Parallelism:       v.cfg.Parallelism,
			MemoryPerExecutor: v.mem,
			Params:            params,
			Controller:        ctl,
			EventLog:          log,
			Hook:              t,
			RealBytes:         true,
		}, ctx)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		cl.AddProfilingTime(core.DefaultProfilingOverhead)
		v.spec.Plain(ctx, 1.0)
		res.Metrics = cl.Finish()
		snap := blaze.StorageMeasurement(cl.Meter().Snapshot())
		res.Storage = &snap
		return res, nil
	}
	srv, err := server.New(server.Config{Executors: 8, MemoryPerExecutor: v.mem})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	sess, err := srv.Submit(server.JobSpec{
		Driver:            func(ctx *dataflow.Context) { v.spec.Plain(ctx, 1.0) },
		Controller:        ctl,
		Params:            params,
		ProfilingOverhead: core.DefaultProfilingOverhead,
		EventLog:          log,
		Hook:              t,
		Parallelism:       v.cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	if err := sess.Wait(); err != nil {
		return nil, err
	}
	res.Metrics = sess.Metrics()
	return res, nil
}

// fidelity compares the two paths on the first variant.
func (b *batchBench) fidelity() (float64, error) {
	v := &b.variants[0]
	cfg := v.cfg
	cfg.EventLog = blaze.NewEventLog()
	want, err := blaze.Run(cfg)
	if err != nil {
		return 0, err
	}
	log := eventlog.New()
	got, err := v.runTraced(newTracer(b.prefix), log)
	if err != nil {
		return 0, err
	}
	if want.MemoryPerExecutor != got.MemoryPerExecutor {
		return 0, fmt.Errorf("traced run used MemoryPerExecutor %d, untraced %d", got.MemoryPerExecutor, want.MemoryPerExecutor)
	}
	if err := sameRun(want.Metrics, got.Metrics, cfg.EventLog, log); err != nil {
		return 0, err
	}
	return float64(log.Len()), nil
}

func (b *batchBench) opsPerRound() int     { return 1 }
func (b *batchBench) generateInput() int   { return b.gen() }
func (b *batchBench) sourcePrefix() string { return b.prefix }
func (b *batchBench) finish()              {}
func (b *batchBench) close()               {}

func (b *batchBench) profileSpec() (blaze.WorkloadSpec, bool) { return b.variants[0].spec, true }

func (b *batchBench) facts() runFacts {
	cfg := b.variants[0].cfg
	return runFacts{
		Seed: b.seed, GeneratorSeeds: generatorSeeds(b.base, b.seed),
		Scale: 1, Executors: 8, Parallelism: cfg.Parallelism, RealBytes: cfg.RealBytes,
	}
}

// sameRun reports how two runs differ: in a deterministic metric or in
// a byte of their JSON event logs.
func sameRun(want, got *blaze.Metrics, wantLog, gotLog *eventlog.Log) error {
	if !blaze.MetricsEqualDeterministic(want, got) {
		return fmt.Errorf("traced metrics differ from untraced (ACT %v vs %v)", got.ACT, want.ACT)
	}
	var wb, gb bytes.Buffer
	if err := wantLog.WriteJSON(&wb); err != nil {
		return err
	}
	if err := gotLog.WriteJSON(&gb); err != nil {
		return err
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		return fmt.Errorf("traced event log differs from untraced (%d vs %d events)", gotLog.Len(), wantLog.Len())
	}
	return nil
}

// ---------------------------------------------------------------------
// Streaming workload: one operation is one window

// streamVariant is one input variant of the streaming workload with the
// reference results of one session, computed at set-up on a sequential
// session without checkpoints: every timed window must reproduce its
// entry, and every session its final metrics.
type streamVariant struct {
	spec       blaze.StreamWorkloadSpec
	refWindows []blaze.WindowStats
	refMetrics *blaze.Metrics
}

// windowSession is what one window operation needs from a session; the
// public blaze.Session and the traced rebuild both provide it.
type windowSession interface {
	submit(driver func(*blaze.Context)) error
	nextWindow() error
	close() (*blaze.Metrics, error)
	// lastWindow returns the stats of the window that just ended.
	lastWindow() blaze.WindowStats
}

// openStream is a session in progress on one path.
type openStream struct {
	sess    windowSession
	variant *streamVariant
	step    func(*blaze.Context, int)
	window  int
}

type streamBench struct {
	variants []streamVariant
	cfg      blaze.SessionConfig
	seed     int64
	dir      string

	// The open session of each path, and the sessions each has opened
	// (which pick the variant).
	plain, traced             *openStream
	plainOpened, tracedOpened int
}

func setupStream(seed int64, par int) (bench, error) {
	dir, err := os.MkdirTemp("", "perfbench-checkpoint-")
	if err != nil {
		return nil, err
	}
	s := &streamBench{
		seed: seed, dir: dir,
		cfg: blaze.SessionConfig{
			System: blaze.SysBlaze, Parallelism: par, MemoryPerExecutor: 1 << 20,
			CostParams: blaze.EvalParams(streamSerFactor), CheckpointDir: dir,
		},
	}
	for _, off := range variantOffsets(seed) {
		spec, err := registerStreamWorkload(streamWorkloadSpec(off))
		if err != nil {
			s.close()
			return nil, err
		}
		s.variants = append(s.variants, streamVariant{spec: spec})
		v := s.variants[len(s.variants)-1:]
		ref := s.cfg
		ref.Parallelism, ref.CheckpointDir = 1, ""
		var slot *openStream
		var m *blaze.Metrics
		opened := 0
		for w := 1; w <= streamWindows && err == nil; w++ {
			m, _, err = s.runWindow(&slot, &opened, v, func() (windowSession, error) {
				return openPublicSession(ref)
			}, nil)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("reference session of %s: %w", spec.ID, err)
		}
		v[0].refMetrics = m
	}
	return s, nil
}

// runWindow runs the next window of *slot, opening a session of the next
// variant first when none is open: Submit plus the NextWindow (or, for
// the last window, the Close) that ends it. It returns the session's
// final metrics after its last window. When variants hold no reference
// windows yet, the window's stats become the reference.
func (s *streamBench) runWindow(slot **openStream, opened *int, variants []streamVariant, open func() (windowSession, error), lt *layerTotals) (*blaze.Metrics, time.Duration, error) {
	if *slot == nil {
		if err := s.freshDir(); err != nil {
			return nil, 0, err
		}
		v := &variants[*opened%len(variants)]
		*opened++
		sess, err := open()
		if err != nil {
			return nil, 0, err
		}
		*slot = &openStream{sess: sess, variant: v, step: v.spec.Open(1, false), window: 1}
	}
	o := *slot
	w := o.window
	o.window++
	start := time.Now()
	err := o.sess.submit(func(ctx *blaze.Context) { o.step(ctx, w) })
	submitted := time.Now()
	var m *blaze.Metrics
	if err == nil {
		if w < streamWindows {
			err = o.sess.nextWindow()
		} else {
			m, err = o.sess.close()
		}
	}
	end := time.Now()
	if lt != nil {
		lt.submitNs += int64(submitted.Sub(start))
		lt.boundaryNs += int64(end.Sub(submitted))
	}
	wall := end.Sub(start)
	if err != nil || w == streamWindows {
		*slot = nil
	}
	if err != nil {
		if w < streamWindows {
			o.sess.close()
		}
		return nil, wall, err
	}
	if err := o.variant.check(o.sess.lastWindow(), m); err != nil {
		return nil, wall, err
	}
	if m != nil && lt != nil {
		lt.addRun(m, nil)
	}
	return m, wall, nil
}

// check compares a finished window, and the final metrics after the
// last one, with the reference; a variant still collecting its
// reference records them instead.
func (v *streamVariant) check(ws blaze.WindowStats, final *blaze.Metrics) error {
	if len(v.refWindows) < ws.Window {
		v.refWindows = append(v.refWindows, ws)
		return nil
	}
	if want := v.refWindows[ws.Window-1]; !ws.EqualDeterministic(want) {
		return fmt.Errorf("%s window %d stats differ from the reference: %+v, want %+v", v.spec.ID, ws.Window, ws, want)
	}
	if final != nil && v.refMetrics != nil && !blaze.MetricsEqualDeterministic(final, v.refMetrics) {
		return fmt.Errorf("%s session metrics differ from the reference (ACT %v, want %v)", v.spec.ID, final.ACT, v.refMetrics.ACT)
	}
	return nil
}

func (s *streamBench) freshDir() error {
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	return os.MkdirAll(s.dir, 0o755)
}

func (s *streamBench) next() (time.Duration, error) {
	_, wall, err := s.runWindow(&s.plain, &s.plainOpened, s.variants, func() (windowSession, error) {
		return openPublicSession(s.cfg)
	}, nil)
	return wall, err
}

func (s *streamBench) nextTraced(t *tracer, lt *layerTotals) (time.Duration, error) {
	_, wall, err := s.runWindow(&s.traced, &s.tracedOpened, s.variants, func() (windowSession, error) {
		return openTracedSession(s.cfg, t, lt.addCheckpoint)
	}, lt)
	return wall, err
}

// fidelity runs one session of the first variant on each path with
// event logs; both are checked window by window against the reference,
// and their final metrics and event logs against each other.
func (s *streamBench) fidelity() (float64, error) {
	run := func(open func(cfg blaze.SessionConfig) (windowSession, error)) (*blaze.Metrics, *eventlog.Log, error) {
		cfg := s.cfg
		cfg.EventLog = eventlog.New()
		var slot *openStream
		var m *blaze.Metrics
		var err error
		opened := 0
		for w := 1; w <= streamWindows && err == nil; w++ {
			m, _, err = s.runWindow(&slot, &opened, s.variants[:1], func() (windowSession, error) { return open(cfg) }, nil)
		}
		return m, cfg.EventLog, err
	}
	want, wantLog, err := run(openPublicSession)
	if err != nil {
		return 0, err
	}
	got, gotLog, err := run(func(cfg blaze.SessionConfig) (windowSession, error) {
		return openTracedSession(cfg, newTracer(s.sourcePrefix()), nil)
	})
	if err != nil {
		return 0, err
	}
	if err := sameRun(want, got, wantLog, gotLog); err != nil {
		return 0, err
	}
	return float64(gotLog.Len()) / streamWindows, nil
}

// generateInput generates the first variant's first-window edge set.
func (s *streamBench) generateInput() int {
	g := streamGraph(variantOffsets(s.seed)[0])
	n := 0
	for v := int64(0); v < int64(g.Vertices); v++ {
		n += len(g.Neighbors(v))
	}
	return n
}

func (s *streamBench) opsPerRound() int     { return streamWindows }
func (s *streamBench) sourcePrefix() string { return "spr-adj@" }

func (s *streamBench) profileSpec() (blaze.WorkloadSpec, bool) { return blaze.WorkloadSpec{}, false }

func (s *streamBench) facts() runFacts {
	return runFacts{
		Seed: s.seed, GeneratorSeeds: generatorSeeds(streamSeed, s.seed),
		Scale: 1, Executors: 8, Parallelism: s.cfg.Parallelism, Durable: true,
	}
}

func (s *streamBench) finish() {
	for _, o := range []*openStream{s.plain, s.traced} {
		if o != nil {
			o.sess.close()
		}
	}
	s.plain, s.traced = nil, nil
}

func (s *streamBench) close() {
	s.finish()
	os.RemoveAll(s.dir)
}

// publicSession adapts blaze.Session to windowSession.
type publicSession struct{ *blaze.Session }

func openPublicSession(cfg blaze.SessionConfig) (windowSession, error) {
	sess, err := blaze.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	return publicSession{sess}, nil
}

func (p publicSession) submit(driver func(*blaze.Context)) error { return p.Submit(driver) }

func (p publicSession) nextWindow() error {
	_, err := p.NextWindow()
	return err
}

func (p publicSession) close() (*blaze.Metrics, error) {
	r, err := p.Close()
	if err != nil {
		return nil, err
	}
	return r.Metrics, nil
}

func (p publicSession) lastWindow() blaze.WindowStats {
	ws := p.WindowStats()
	return ws[len(ws)-1]
}

// ---------------------------------------------------------------------
// Traced streaming session

// tracedSession is blaze.Session rebuilt with the tracer attached: the
// same server stream session, controller, checkpointer and event WAL,
// and the same per-window stats capture.
type tracedSession struct {
	srv     *server.Server
	st      *server.StreamSession
	log     *eventlog.Log
	wal     *eventlog.WAL
	window  int
	prev    blaze.WindowStats
	windows []blaze.WindowStats
	closed  bool
}

func openTracedSession(cfg blaze.SessionConfig, t *tracer, onWrite func(window, blocks int, bytes int64, d time.Duration)) (*tracedSession, error) {
	inner := core.NewBlaze().WithColdVerify(cfg.ColdSolveVerify)
	srv, err := server.New(server.Config{
		Executors:         8,
		MemoryPerExecutor: cfg.MemoryPerExecutor,
		Parallelism:       cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	st, err := srv.SubmitStream(server.JobSpec{
		Controller:  newTracedController(inner, t),
		Params:      cfg.CostParams,
		EventLog:    cfg.EventLog,
		Hook:        t,
		Parallelism: cfg.Parallelism,
	})
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &tracedSession{srv: srv, st: st, log: cfg.EventLog, window: 1}
	cp := &checkpoint.Checkpointer{
		Dir:         cfg.CheckpointDir,
		ClientState: s.clientState,
		Summary:     func() any { return inner.Summary() },
		OnWrite:     onWrite,
	}
	var setupErr error
	err = st.Do(func(ctx *dataflow.Context) {
		wal, err := eventlog.CreateWAL(checkpoint.WALPath(cfg.CheckpointDir))
		if err != nil {
			setupErr = err
			return
		}
		var seed []eventlog.Event
		if s.log != nil {
			seed = s.log.Events()
		}
		if err := wal.AppendAll(seed); err != nil {
			wal.Close()
			setupErr = err
			return
		}
		s.wal = wal
		if s.log != nil {
			s.log.SetSink(func(e eventlog.Event) {
				if err := wal.Append(e); err != nil {
					panic(fmt.Sprintf("perfbench: event wal append: %v", err))
				}
			})
		}
		ctx.Runner().(*engine.Cluster).SetWindowCheckpointer(cp)
	})
	if err = errors.Join(err, setupErr); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *tracedSession) submit(driver func(*blaze.Context)) error { return s.st.Do(driver) }

func (s *tracedSession) lastWindow() blaze.WindowStats { return s.windows[len(s.windows)-1] }

func (s *tracedSession) nextWindow() error {
	if err := s.capture(); err != nil {
		return err
	}
	w, err := s.st.NextWindow()
	s.window = w
	return err
}

func (s *tracedSession) close() (*blaze.Metrics, error) {
	if s.closed {
		return nil, errors.New("perfbench: traced session closed")
	}
	s.closed = true
	captureErr := s.capture()
	err := s.st.Close()
	if s.wal != nil {
		if s.log != nil {
			s.log.SetSink(nil)
		}
		s.wal.Close()
		s.wal = nil
	}
	s.srv.Close()
	if err = errors.Join(err, captureErr); err != nil {
		return nil, err
	}
	return s.st.Session().Metrics(), nil
}

// capture appends the closing window's stats, diffed from the cluster's
// cumulative counters as Session does.
func (s *tracedSession) capture() error {
	var cur blaze.WindowStats
	err := s.st.Do(func(ctx *dataflow.Context) {
		cur = cumulative(ctx.Runner().(*engine.Cluster).Metrics())
	})
	if err != nil {
		return err
	}
	s.windows = append(s.windows, windowDelta(cur, s.prev, s.window))
	s.prev = cur
	return nil
}

// clientState is the driver-side checkpoint payload, shaped like
// Session's: the window index, cumulative snapshot and window stats.
func (s *tracedSession) clientState() ([]byte, error) {
	st := struct {
		Window  int
		Prev    blaze.WindowStats
		Windows []blaze.WindowStats
	}{s.window, s.prev, s.windows}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// cumulative reads the counters WindowStats are deltas of.
func cumulative(m *metrics.App) blaze.WindowStats {
	return blaze.WindowStats{
		MemHits: m.CacheHits, DiskHits: m.DiskHits, Misses: m.Misses, Evictions: m.Evictions,
		PartitionsRetired: m.PartitionsRetired,
		ILPDeltaSolves:    m.ILPDeltaSolves, ILPDeltaNodes: m.ILPDeltaNodes,
		ILPColdSolves: m.ILPColdSolves, ILPColdNodes: m.ILPColdNodes, ILPColdMismatches: m.ILPColdMismatches,
		ILPDeltaSolveTime: m.ILPDeltaSolveTime, ILPColdSolveTime: m.ILPColdSolveTime,
	}
}

func windowDelta(cur, prev blaze.WindowStats, window int) blaze.WindowStats {
	return blaze.WindowStats{
		Window:            window,
		MemHits:           cur.MemHits - prev.MemHits,
		DiskHits:          cur.DiskHits - prev.DiskHits,
		Misses:            cur.Misses - prev.Misses,
		Evictions:         cur.Evictions - prev.Evictions,
		PartitionsRetired: cur.PartitionsRetired - prev.PartitionsRetired,
		ILPDeltaSolves:    cur.ILPDeltaSolves - prev.ILPDeltaSolves,
		ILPDeltaNodes:     cur.ILPDeltaNodes - prev.ILPDeltaNodes,
		ILPColdSolves:     cur.ILPColdSolves - prev.ILPColdSolves,
		ILPColdNodes:      cur.ILPColdNodes - prev.ILPColdNodes,
		ILPColdMismatches: cur.ILPColdMismatches - prev.ILPColdMismatches,
		ILPDeltaSolveTime: cur.ILPDeltaSolveTime - prev.ILPDeltaSolveTime,
		ILPColdSolveTime:  cur.ILPColdSolveTime - prev.ILPColdSolveTime,
	}
}
