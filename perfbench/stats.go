package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"blaze"
)

// layerTotals sums the per-layer counters of the traced operations that
// the tracer does not see: the run's own Metrics and storage meter, the
// session calls and the checkpoint commits.
type layerTotals struct {
	ops   int
	walls []float64 // traced operation wall times, ms

	ilpSolves, ilpNodes, ilpDeltaSolves int64
	ilpSolveNs                          int64
	memHits, diskHits, misses           int64
	evictions, spills, retired          int64

	encodeNs, decodeNs, writeNs, readNs, storageBytes int64

	submitNs, boundaryNs                            int64
	checkpointNs, checkpointBytes, checkpointBlocks int64

	gcCycles float64
	gcCPUs   float64
}

// addRun adds one finished run's metrics and, for real-bytes runs, its
// storage measurement.
func (lt *layerTotals) addRun(m *blaze.Metrics, s *blaze.StorageMeasurement) {
	lt.ilpSolves += int64(m.ILPSolves + m.ILPDeltaSolves)
	lt.ilpNodes += int64(m.ILPNodes + m.ILPDeltaNodes)
	lt.ilpDeltaSolves += int64(m.ILPDeltaSolves)
	lt.ilpSolveNs += int64(m.ILPSolveTime + m.ILPDeltaSolveTime)
	lt.memHits += int64(m.CacheHits)
	lt.diskHits += int64(m.DiskHits)
	lt.misses += int64(m.Misses)
	lt.evictions += int64(m.Evictions)
	lt.spills += int64(m.EvictionsToDisk)
	lt.retired += int64(m.PartitionsRetired)
	if s != nil {
		lt.encodeNs += int64(s.MemEncode.Wall)
		lt.decodeNs += int64(s.MemDecode.Wall)
		lt.writeNs += int64(s.DiskWrite.Wall)
		lt.readNs += int64(s.DiskRead.Wall)
		lt.storageBytes += s.MemEncode.Bytes + s.MemDecode.Bytes + s.DiskWrite.Bytes + s.DiskRead.Bytes
	}
}

// addCheckpoint observes one committed window checkpoint.
func (lt *layerTotals) addCheckpoint(_, blocks int, bytes int64, d time.Duration) {
	lt.checkpointNs += int64(d)
	lt.checkpointBytes += bytes
	lt.checkpointBlocks += int64(blocks)
}

func (lt *layerTotals) storageNs() int64 { return lt.encodeNs + lt.decodeNs + lt.writeNs + lt.readNs }

// processCounters are the process-wide resource counters read around a
// measured stretch: CPU time from getrusage, heap allocation and GC from
// runtime/metrics.
type processCounters struct {
	cpu       time.Duration
	allocB    float64
	gcCycles  float64
	gcCPUSecs float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readCounters() processCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(runtimeSamples)
	return processCounters{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB:    float64(runtimeSamples[0].Value.Uint64()),
		gcCycles:  float64(runtimeSamples[1].Value.Uint64()),
		gcCPUSecs: runtimeSamples[2].Value.Float64(),
	}
}

func (a processCounters) add(b processCounters) processCounters {
	return processCounters{
		cpu:       a.cpu + b.cpu,
		allocB:    a.allocB + b.allocB,
		gcCycles:  a.gcCycles + b.gcCycles,
		gcCPUSecs: a.gcCPUSecs + b.gcCPUSecs,
	}
}

func (a processCounters) sub(b processCounters) processCounters {
	return processCounters{
		cpu:       a.cpu - b.cpu,
		allocB:    a.allocB - b.allocB,
		gcCycles:  a.gcCycles - b.gcCycles,
		gcCPUSecs: a.gcCPUSecs - b.gcCPUSecs,
	}
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic with at least ten samples
// above it, and its percentile rank; with ten or fewer samples it
// returns the maximum.
func tail(xs []float64) (value, percentile float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
