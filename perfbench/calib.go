package main

// Host-speed calibration. The shared hosts this benchmark runs on drift
// in speed by 20% and more over minutes, in CPU time as much as in wall
// time, while one run lasts well under a minute; no amount of in-run
// averaging removes that. So the closed loop times a fixed job of the
// benchmark's own between operations, and the end-to-end times are
// reported scaled by refCalibMs over that job's median in the same run:
// a program change moves them, a slower host does not. The unscaled
// values print beside them.

import (
	"sort"
	"time"
)

// refCalibMs is the calibration job's wall time, in ms, that the scaled
// metrics refer to: about its median on the 2-vCPU Xeon host the
// benchmark was written on.
const refCalibMs = 10.0

// calibrator runs the calibration job: hashing into a map of 20000 keys
// and sorting 50000 floats, a mix of ALU work, cache misses and branches
// like the operations' own. Its buffers are reused, so after the first
// call it allocates nothing and leaves the heap and GC alone.
type calibrator struct {
	m    map[int64]float64
	xs   []float64
	sink float64
}

const calibKeys, calibLen = 20000, 50000

func newCalibrator() *calibrator {
	c := &calibrator{m: make(map[int64]float64, calibKeys), xs: make([]float64, 0, calibLen)}
	c.time() // size the map
	return c
}

// time runs the job once and returns its wall time.
func (c *calibrator) time() time.Duration {
	start := time.Now()
	clear(c.m)
	xs := c.xs[:0]
	x := uint64(88172645463325252)
	for i := 0; i < calibLen; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.m[int64(x%calibKeys)] += float64(x%1000) / 7
		xs = append(xs, float64(x%100000))
	}
	sort.Float64s(xs)
	c.sink += xs[len(xs)/2] + c.m[3]
	return time.Since(start)
}
