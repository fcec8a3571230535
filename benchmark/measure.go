package main

import (
	gort "runtime"
	"sort"
	"time"
)

// cost is what the process spent over one timed region.
type cost struct {
	setupS   float64 // wall time of the set-up that preceded the region
	runS     float64 // wall time of the region
	cpuS     float64 // user+system CPU over the region
	mallocs  uint64
	gcCycles uint32
	gcCPUS   float64
}

// region is an open timed region.
type region struct {
	start        time.Time
	cpu0, gcCPU0 float64
	before       gort.MemStats
}

// beginRegion collects the set-up's garbage, which is not the run's, and
// starts the clocks.
func beginRegion() *region {
	r := &region{}
	gort.GC()
	gort.ReadMemStats(&r.before)
	r.gcCPU0 = gcCPUSeconds()
	r.cpu0, r.start = cpuSeconds(), time.Now()
	return r
}

func (r *region) end() cost {
	c := cost{runS: time.Since(r.start).Seconds(), cpuS: cpuSeconds() - r.cpu0}
	var after gort.MemStats
	gort.ReadMemStats(&after)
	c.mallocs = after.Mallocs - r.before.Mallocs
	c.gcCycles = after.NumGC - r.before.NumGC
	c.gcCPUS = gcCPUSeconds() - r.gcCPU0
	return c
}

// median returns the middle value of v (the mean of the middle two for an
// even count); v is sorted in place.
func median(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// percentileNs returns the p-th percentile (nearest rank) of sorted
// nanosecond samples, in the unit div nanoseconds make.
func percentileNs(sorted []int64, p, div float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return float64(sorted[rank]) / div
}

func meanNs(samples []int64, div float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum int64
	for _, s := range samples {
		sum += s
	}
	return float64(sum) / float64(len(samples)) / div
}
