package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// runTimed runs whole passes over the workload's cells on the sweep pool
// until o.seconds of pass time have elapsed, and at least two passes so
// every cell meets the pass-to-pass identity check. Only the sweep calls
// are timed; checking results happens between them. Each pass starts from
// a collected heap, and the rate is the median over passes, so one pass
// disturbed by the host does not move it. A memory pass follows.
func runTimed(s *setup, o options, res *result, stderr io.Writer) error {
	cells := s.w.sweepCells()
	var elapsed time.Duration
	var allocBytes uint64
	var m0, m1 runtime.MemStats
	var rates []float64
	for pass := 0; pass < 2 || elapsed.Seconds() < o.seconds; pass++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		results, _ := sweep.ForEach(cells, sweep.Options{Workers: s.w.workers})
		wall := time.Since(start)
		elapsed += wall
		runtime.ReadMemStats(&m1)
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		var ops uint64
		for i, r := range results {
			ops += judge(s, i, r, res, stderr)
		}
		rates = append(rates, float64(ops)/wall.Seconds()/1e6)
	}
	fmt.Fprintf(stderr, "perfbench: %d passes in %.3f s; Mops/s by pass %.4v\n", len(rates), elapsed.Seconds(), rates)
	rss, err := memoryPass(s, res, stderr)
	if err != nil {
		return err
	}
	res.Metrics["sim_mops_per_s"] = metric{median(rates), "Mops/s"}
	res.Metrics["alloc_mb_per_cell"] = metric{float64(allocBytes) / float64(len(rates)*len(cells)) / 1e6, "MB"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	return nil
}

// memoryPass runs every cell once more, alone, each from a collected heap
// whose free pages went back to the OS, and returns the largest resident
// set a cell ends with (its memory is still resident then). Measured this
// way the peak depends on what the cells allocate and touch, not on how
// far the concurrent collector lagged behind a pass: on a shared 2-CPU
// host the process-wide peak of identical passes moved by up to a third
// with the host's load.
func memoryPass(s *setup, res *result, stderr io.Writer) (float64, error) {
	peak := 0.0
	for i, c := range s.w.cells {
		debug.FreeOSMemory()
		r := c.run()
		mb, err := rssMB()
		if err != nil {
			return 0, err
		}
		peak = max(peak, mb)
		judge(s, i, r, res, stderr)
	}
	return peak, nil
}

// judge checks cell i's result r, counting the attempt and any failure
// into res, and returns the simulated operations it completed.
func judge(s *setup, i int, r sim.Result, res *result, stderr io.Writer) uint64 {
	res.Attempted++
	if why := s.chk.check(i, r); why != "" {
		res.Failed++
		fmt.Fprintf(stderr, "FAIL %s: %s\n", s.w.cells[i].label(), why)
		return 0
	}
	return s.w.cells[i].opsOf(r)
}

// rssMB reads the process's resident set in MB from /proc/self/statm.
func rssMB() (float64, error) {
	blob, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(blob))
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", blob)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / 1e6, nil
}
