package mllib

import (
	"math"

	"blaze/internal/dataflow"
	"blaze/internal/datagen"
)

// Streaming k-means: the micro-batch variant of the KMeans workload.
// Each window clusters a fresh drifted point batch (the generator
// re-seeded per window) with a few Lloyd's iterations, starting from
// the previous window's final centroids — the carried state that makes
// the stream converge across windows while each window's point batch
// and intermediate statistics die with the window.

// KMeansStreamConfig parameterizes the streaming k-means stream.
type KMeansStreamConfig struct {
	// Data describes one window's point batch; window w re-seeds the
	// generator with Seed+w-1, modeling concept drift between batches.
	Data  datagen.ClusterSpec
	Parts int
	// ItersPerWindow is how many Lloyd's iterations each window runs
	// (default 3).
	ItersPerWindow int
	// Annotate applies MLlib-style cache() annotations for
	// annotation-based systems; Blaze runs without them.
	Annotate bool
}

func (c KMeansStreamConfig) withDefaults() KMeansStreamConfig {
	if c.Parts == 0 {
		c.Parts = 8
	}
	if c.ItersPerWindow == 0 {
		c.ItersPerWindow = 3
	}
	return c
}

// KMeansStream returns the per-window step driver. The returned closure
// owns the carried state (the previous window's final centroid
// dataset); calling it with window w submits window w's jobs and
// returns the centroids after that window's iterations.
func KMeansStream(cfg KMeansStreamConfig) func(ctx *dataflow.Context, window int) [][]float64 {
	cfg = cfg.withDefaults()
	var centroids *dataflow.Dataset
	return func(ctx *dataflow.Context, window int) [][]float64 {
		spec := cfg.Data
		spec.Seed += int64(window - 1)
		base := (window - 1) * (cfg.ItersPerWindow + 1)

		points := clusterSource(ctx, name("skm-points", base), spec, cfg.Parts)
		if cfg.Annotate {
			points.Cache()
		}
		if centroids == nil {
			// Window 1 seeds from the first K points, like the batch
			// workload; every later window carries centroids in.
			init := spec
			centroids = ctx.Source(name("skm-cent", base), 1, func(int) []dataflow.Record {
				out := make([]dataflow.Record, init.K)
				for c := 0; c < init.K; c++ {
					x, _ := init.Point(int64(c))
					out[c] = dataflow.Record{Key: int64(c), Value: Vector{V: x}}
				}
				return out
			})
		}

		// The carried-in centroid dataset is never explicitly released:
		// windowed lifetime management retires cross-window state once
		// its last-consumer window has passed.
		carriedIn := centroids
		var prevStats, prevCentDS *dataflow.Dataset
		var centers [][]float64
		for i := 1; i <= cfg.ItersPerWindow; i++ {
			it := base + i
			stats := dataflow.Barrier(name("skm-stats", it), dataflow.OpHeavy, points, centroids,
				func(_ int, ps, cs []dataflow.Record) []dataflow.Record {
					ctrs := make([][]float64, spec.K)
					for _, c := range cs {
						ctrs[c.Key] = c.Value.(Vector).V
					}
					acc := make(map[int64]*sumCount)
					for _, p := range ps {
						x := p.Value.(Vector).V
						best, bestD := 0, math.Inf(1)
						for c, ctr := range ctrs {
							if ctr == nil {
								continue
							}
							d := 0.0
							for j := range x {
								diff := x[j] - ctr[j]
								d += diff * diff
							}
							if d < bestD {
								best, bestD = c, d
							}
						}
						sc := acc[int64(best)]
						if sc == nil {
							sc = &sumCount{Sum: make([]float64, len(x))}
							acc[int64(best)] = sc
						}
						for j := range x {
							sc.Sum[j] += x[j]
						}
						sc.N++
					}
					var out []dataflow.Record
					for c := int64(0); c < int64(spec.K); c++ {
						if sc := acc[c]; sc != nil {
							out = append(out, dataflow.Record{Key: c, Value: *sc})
						}
					}
					return out
				})
			agg := stats.ReduceByKey(name("skm-agg", it), 1, func(a, b any) any {
				av, bv := a.(sumCount), b.(sumCount)
				sum := make([]float64, len(av.Sum))
				for j := range sum {
					sum[j] = av.Sum[j] + bv.Sum[j]
				}
				return sumCount{Sum: sum, N: av.N + bv.N}
			})
			newCent := agg.Map(name("skm-cent", it), func(r dataflow.Record) dataflow.Record {
				sc := r.Value.(sumCount)
				v := make([]float64, len(sc.Sum))
				for j := range v {
					v[j] = sc.Sum[j] / math.Max(sc.N, 1)
				}
				return dataflow.Record{Key: r.Key, Value: Vector{V: v}}
			})
			if cfg.Annotate {
				newCent.Cache()
			}

			centers = make([][]float64, spec.K)
			for _, part := range newCent.Collect() { // the iteration's job
				for _, r := range part {
					centers[r.Key] = r.Value.(Vector).V
				}
			}

			if prevStats != nil {
				prevStats.Release()
			}
			if prevCentDS != nil && prevCentDS != carriedIn {
				prevCentDS.Release()
			}
			prevStats, prevCentDS = stats, centroids
			centroids = newCent
		}
		return centers
	}
}
