package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// environment describes the machine a result was measured on. Every result
// carries one, so two numbers are only ever compared with their hosts in
// view.
type environment struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Shards     int     `json:"shards"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	CalibMs    float64 `json:"calibration_ms"`
	Load1      float64 `json:"load1_at_start"`
	Link       string  `json:"link,omitempty"`
}

func readEnvironment() environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		CalibMs:    calibrate(),
		Load1:      loadAverage(),
	}
}

func (e environment) String() string {
	s := fmt.Sprintf("nproc=%d GOMAXPROCS=%d shards=%d go=%s cpu=%q calibration_ms=%.1f load1=%.2f",
		e.NProc, e.GoMaxProcs, e.Shards, e.GoVersion, e.CPUModel, e.CalibMs, e.Load1)
	if e.Link != "" {
		s += " link=" + strconv.Quote(e.Link)
	}
	return s
}

// busy reports whether the machine was already loaded when the run began:
// above half the cores, timings are not worth comparing.
func (e environment) busy() bool { return e.Load1 > float64(e.NProc)/2 }

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

func loadAverage() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // unparsable reads as idle
	return v
}

// calibrate times a fixed xorshift loop (2^25 steps of register arithmetic:
// no memory traffic, no allocation) and returns the best of three trials in
// milliseconds — the same yardstick idea as cmd/lifting-bench, so results
// from machines of different clock speed can be put side by side.
func calibrate() float64 {
	best := 0.0
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		x := uint64(0x9E3779B97F4A7C15)
		for i := 0; i < 1<<25; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calSink.Store(x)
		if ms := float64(time.Since(start).Nanoseconds()) / 1e6; best == 0 || ms < best {
			best = ms
		}
	}
	return best
}

// calSink keeps the results of the calibration loop and of the probes
// observable, so the compiler cannot delete the loops that compute them.
var calSink atomic.Uint64

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64) // unparsable reads as 0, which the result check rejects
				return kb / 1024
			}
		}
	}
	return 0
}
