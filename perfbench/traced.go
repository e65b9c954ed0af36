package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/uop"
	"repro/internal/uprog"
	"repro/internal/workloads"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls. Spans of one cell share Cell; Parent indexes the span
// that caused it (-1 for a cell's root).
type span struct {
	Name   string `json:"name"`
	Cell   int    `json:"cell"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls"`
}

// spanLog keeps spans in memory until the traced run ends.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int
	cell  int
}

// time runs f inside a span and returns the span's duration in ns.
func (l *spanLog) time(name string, calls int64, f func()) int64 {
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Cell: l.cell, Parent: parent, Start: time.Since(l.t0).Nanoseconds()})
	l.open = append(l.open, id)
	f()
	l.open = l.open[:len(l.open)-1]
	l.spans[id].End = time.Since(l.t0).Nanoseconds()
	l.spans[id].Calls = calls
	return l.spans[id].End - l.spans[id].Start
}

// layer accumulates one per-layer rate: an amount (ns, or bytes and
// allocations for construction) over calls, from the cells whose replay
// passed its fidelity check.
type layer struct {
	total, calls float64
	invalid      string // why a replay failed its check
}

func (a *layer) add(amount int64, calls int64) {
	a.total += float64(amount)
	a.calls += float64(calls)
}

// layerSet is every per-layer rate of a traced run, by metric name.
type layerSet map[string]*layer

func (ls layerSet) get(name string) *layer {
	if ls[name] == nil {
		ls[name] = &layer{}
	}
	return ls[name]
}

func (ls layerSet) fail(name, why string) {
	if a := ls.get(name); a.invalid == "" {
		a.invalid = why
	}
}

// layerMetrics are the replayed layers' rates: each metric's unit and the
// factor from its accumulated amount per call (ns, or bytes and
// allocations for the construction rows) to that unit.
var layerMetrics = []struct {
	name, unit string
	scale      float64
}{
	{"flat.new_ms", "ms", 1e-6},
	{"flat.new_mb", "MB", 1e-6},
	{"flat.checksum_ms", "ms", 1e-6},
	{"hierarchy.new_us", "us", 1e-3},
	{"hierarchy.new_allocs", "count", 1},
	{"cache.core_access_ns.hit", "ns", 1},
	{"cache.core_access_ns.miss", "ns", 1},
	{"cache.line_access_ns", "ns", 1},
	{"core.event_ns", "ns", 1},
	{"isa.instr_ns", "ns", 1},
	{"iv.handle_ns", "ns", 1},
	{"dv.handle_ns", "ns", 1},
	{"eve.handle_ns", "ns", 1},
	{"eve.spawn_us", "us", 1e-3},
	{"datapath.exec_us", "us", 1e-3},
	{"uprog.cycle_ns", "ns", 1},
}

// Kernels whose scalar streams mostly hit (and mostly miss) in the caches;
// they fill the cache.core_access_ns.hit and .miss buckets.
var (
	hitKernels  = map[string]bool{"mmult": true, "sw": true}
	missKernels = map[string]bool{"backprop": true, "k-means": true}
)

// traceCell runs every layer replay of one sim cell and adds what it
// measures to ls. want is the cell's untraced result, which the traced
// run must reproduce exactly.
func traceCell(l *spanLog, ls layerSet, c cell, want sim.Result) (untracedNs, tracedNs int64, why string) {
	add := func(name string, ns, calls int64) { ls.get(name).add(ns, calls) }
	k, cfg := c.kernel, c.sys
	vector := cfg.Kind != sim.SysIO && cfg.Kind != sim.SysO3

	// The real cell, traced: its core call stream and access times.
	var cap coreCapture
	var got sim.Result
	// It and an untraced run right after it give the tracing overhead;
	// the caller's untraced run before it has warmed the heap for both.
	tracedNs = l.time("sim.run_traced", 1, func() { got = sim.RunTraced(cfg, k, &cap) })
	untracedNs = l.time("sim.run", 1, func() { sim.RunTraced(cfg, k, nil) })
	if fingerprintOf(got) != fingerprintOf(want) {
		return 0, 0, "traced run differs from the untraced one"
	}

	// Construction layers.
	var m0, m1 runtime.MemStats
	var flat *mem.Flat
	runtime.ReadMemStats(&m0)
	ns := l.time("flat.new", 1, func() { flat = mem.NewFlat(64 << 20) })
	runtime.ReadMemStats(&m1)
	add("flat.new_ms", ns, 1)
	add("flat.new_mb", int64(m1.TotalAlloc-m0.TotalAlloc), 1)
	const hierBatch = 8
	runtime.ReadMemStats(&m0)
	ns = l.time("hierarchy.new", hierBatch, func() {
		for i := 0; i < hierBatch; i++ {
			mem.NewHierarchy()
		}
	})
	runtime.ReadMemStats(&m1)
	add("hierarchy.new_us", ns, hierBatch)
	add("hierarchy.new_allocs", int64(m1.Mallocs-m0.Mallocs), hierBatch)

	// Functional execution: the dynamic trace, then the same run into a
	// sink that drops it, timed per dynamic instruction.
	hwvl := hwvlOf(cfg)
	var tr isaCapture
	l.time("isa.capture", 1, func() { k.Run(isa.NewBuilder(mem.NewFlat(64<<20), hwvl, &tr), vector) })
	b := isa.NewBuilder(flat, hwvl, discard{})
	ns = l.time("isa.run", int64(want.Mix.DynamicInstrs()), func() { k.Run(b, vector) })
	add("isa.instr_ns", ns, int64(want.Mix.DynamicInstrs()))
	if b.Mix() != want.Mix {
		ls.fail("isa.instr_ns", "functional run's instruction mix differs from the cell's")
	}
	var sum uint64
	ns = l.time("flat.checksum", 1, func() { sum = flat.Checksum() })
	add("flat.checksum_ms", ns, 1)
	if sum != want.MemChecksum {
		ls.fail("flat.checksum_ms", fmt.Sprintf("%s: checksum %#x, cell has %#x", c.label(), sum, want.MemChecksum))
	}
	if tr.overflow || cap.overflow {
		return untracedNs, tracedNs, "a captured address or time did not fit the packing"
	}

	// Whole-system replay from public constructors: the cycles and every
	// stat of the real cell must come back.
	var spawnNs int64
	s := buildSystem(cfg, func(f func()) { spawnNs = l.time("eve.spawn", 1, f) })
	var cycles int64
	var steps []vecStep
	fullNs := l.time("replay.system", int64(len(tr.order)), func() { cycles, steps = replayFull(s, &tr) })
	if cycles != want.Cycles {
		return untracedNs, tracedNs, fmt.Sprintf("system replay: cycles %d, cell has %d", cycles, want.Cycles)
	}
	comps := []string{"core", "l1d", "l2", "llc", "dram"}
	switch cfg.Kind {
	case sim.SysO3IV:
		comps = append(comps, "iv")
	case sim.SysO3DV:
		comps = append(comps, "dv")
	case sim.SysO3EVE:
		comps = append(comps, "eve")
	}
	if d := sameStats(s.reg.Snapshot(), want.Stats, comps...); d != "" {
		return untracedNs, tracedNs, "system replay: " + d
	}
	if s.eve != nil {
		add("eve.spawn_us", spawnNs, 1)
	}

	switch cfg.Kind {
	case sim.SysIO, sim.SysO3, sim.SysO3IV:
		// The core call stream (IV's calls included) into a fresh core,
		// and the core's access stream into a fresh hierarchy.
		cs := newCore(cfg)
		coreNs := l.time("replay.core", int64(len(cap.calls)), func() { replayCoreCalls(cs.core, cap.calls) })
		if d := sameStats(cs.reg.Snapshot(), want.Stats, "core", "l1d", "l2", "llc", "dram"); d != "" {
			ls.fail("core.event_ns", c.label()+": core replay: "+d)
			if cfg.Kind == sim.SysO3IV {
				ls.fail("iv.handle_ns", c.label()+": core replay: "+d)
			}
			return untracedNs, tracedNs, ""
		}
		h := mem.NewHierarchy()
		cacheNs := l.time("replay.cache", cap.accesses, func() { replayCoreAccesses(h, cap.calls) })
		bucket := ""
		switch {
		case hitKernels[k.Name]:
			bucket = "cache.core_access_ns.hit"
		case missKernels[k.Name]:
			bucket = "cache.core_access_ns.miss"
		}
		if d := sameStats(cacheStats(map[string]*mem.Cache{"l1d": h.L1D, "l2": h.L2, "llc": h.LLC}), want.Stats, "l1d", "l2", "llc"); d != "" {
			for _, name := range []string{"core.event_ns", bucket} {
				if name != "" {
					ls.fail(name, c.label()+": cache replay: "+d)
				}
			}
			return untracedNs, tracedNs, ""
		}
		if bucket != "" {
			add(bucket, cacheNs, cap.accesses)
		}
		add("core.event_ns", coreNs-cacheNs, int64(len(cap.calls)))
		if cfg.Kind == sim.SysO3IV {
			add("iv.handle_ns", fullNs-coreNs, int64(len(tr.vec)))
		}
	case sim.SysO3DV, sim.SysO3EVE:
		traceEngine(l, ls, c, s, &tr, steps, fullNs, add)
	}
	return untracedNs, tracedNs, ""
}

// traceEngine splits a DV or EVE cell's replay into the engine's own work
// and its line traffic: the playback replay re-issues the recorded lines
// and blocks without the engine, and the level replay drives the captured
// input stream of the engine's cache level into a fresh one.
func traceEngine(l *spanLog, ls layerSet, c cell, full *system, tr *isaCapture, steps []vecStep, fullNs int64, add func(string, int64, int64)) {
	cfg := c.sys
	handle := "dv.handle_ns"
	if cfg.Kind == sim.SysO3EVE {
		handle = "eve.handle_ns"
	}
	level, named := newLevel(cfg)
	lineNs := l.time("replay.lines", int64(len(full.lines)), func() { replayLines(level, full.lines) })
	prefixes := []string{"llc"}
	if cfg.Kind == sim.SysO3DV {
		prefixes = append(prefixes, "l2")
	}
	if d := sameStats(cacheStats(named), full.reg.Snapshot(), prefixes...); d != "" {
		ls.fail("cache.line_access_ns", c.label()+": level replay: "+d)
	} else {
		add("cache.line_access_ns", lineNs, int64(len(full.lines)))
	}

	pb := buildSystem(cfg, func(f func()) { f() })
	var now int64
	pbNs := l.time("replay.playback", int64(len(tr.order)), func() { now = replayPlayback(pb, tr, full.lines, steps) })
	if now != full.core.Now() || len(pb.lines) != len(full.lines) {
		ls.fail(handle, fmt.Sprintf("%s: playback ends at cycle %d with %d lines, system replay at %d with %d",
			c.label(), now, len(pb.lines), full.core.Now(), len(full.lines)))
		return
	}
	for i := range pb.lines {
		if pb.lines[i] != full.lines[i] {
			ls.fail(handle, fmt.Sprintf("%s: playback line %d differs", c.label(), i))
			return
		}
	}
	add(handle, fullNs-pbNs, int64(len(tr.vec)))
}

// countingDP counts the Exec calls a faults.Datapath serves.
type countingDP struct {
	dp    *faults.Datapath
	calls int64
}

func (c *countingDP) Exec(in *isa.Instr, golden []uint32) []uint32 {
	c.calls++
	return c.dp.Exec(in, golden)
}

func (c *countingDP) Read(r int) []uint32 { return c.dp.Read(r) }

// traceDatapath times a fault-free bit-level datapath run of k on cfg
// against the plain run: the difference is the datapath's, per Exec call.
// The datapath run must reproduce the plain run's cycles and checksum.
func traceDatapath(l *spanLog, ls layerSet, k *workloads.Kernel, cfg sim.Config) {
	var plain, withDP sim.Result
	var dp *countingDP
	runtime.GC()
	plainNs := l.time("sim.run_traced", 1, func() { plain = sim.RunTraced(cfg, k, nil) })
	runtime.GC()
	dpNs := l.time("datapath.run", 1, func() {
		withDP, _ = sim.RunDatapath(cfg, k, func(hwvl int) isa.Datapath {
			dp = &countingDP{dp: faults.NewDatapath(cfg.N, hwvl, cfg.MaxUProgCycles)}
			return dp
		})
	})
	if withDP.Err != nil || withDP.Cycles != plain.Cycles || withDP.MemChecksum != plain.MemChecksum {
		ls.fail("datapath.exec_us", fmt.Sprintf("%s/%s: datapath run cycles %d checksum %#x err %v, plain %d %#x",
			k.Name, cfg.Name(), withDP.Cycles, withDP.MemChecksum, withDP.Err, plain.Cycles, plain.MemChecksum))
		return
	}
	ls.get("datapath.exec_us").add(dpNs-plainNs, dp.calls)
}

// traceUProg times uprog.Machine.Run on the micro-programs of the common
// arithmetic macro-ops, on a machine the size of an EVE-n datapath, per
// micro-op cycle. Run's cycle count must equal CountCycles', which the
// machine guarantees for data-independent programs.
func traceUProg(l *spanLog, ls layerSet, n, elems int) {
	m := uprog.NewMachine(n, elems)
	lay := m.Layout
	progs := []*uop.Program{
		uprog.Add(lay, 1, 2, 3, false),
		uprog.Sub(lay, 1, 2, 3, false),
		uprog.Mul(lay, 1, 2, 3, false, false),
		uprog.MinMax(lay, true, true, 1, 2, 3, false),
		uprog.ShiftImm(lay, uprog.ShSLL, 1, 2, 3, false),
	}
	want := 0
	for _, p := range progs {
		want += m.CountCycles(p)
	}
	cycles := 0
	ns := l.time("uprog.run", int64(want), func() {
		for _, p := range progs {
			cycles += m.Run(p, nil)
		}
	})
	if cycles != want {
		ls.fail("uprog.cycle_ns", fmt.Sprintf("Run took %d cycles, CountCycles %d", cycles, want))
		return
	}
	ls.get("uprog.cycle_ns").add(ns, int64(cycles))
}

// passObserver totals the busy time and retries of one sweep.
type passObserver struct {
	mu      sync.Mutex
	busy    time.Duration
	retries int
}

func (p *passObserver) CellStart(int, string, string) {}
func (p *passObserver) SweepDone(int, int)            {}
func (p *passObserver) CellDone(_, _, _ int, _ sim.Result, wall time.Duration) {
	p.mu.Lock()
	p.busy += wall
	p.mu.Unlock()
}
func (p *passObserver) CellRetry(int, string, string, int, error) {
	p.mu.Lock()
	p.retries++
	p.mu.Unlock()
}

// probeCells are the Small() cells that stand in for a layer the
// workload's own cells do not reach, so every traced run reports every
// layer. Each is used only where no workload cell covers its layer.
func probeCells(w *workload) []cell {
	has := func(pred func(cell) bool) bool {
		// A fault cell's kernel is traced fault-free on its system.
		for _, c := range w.cells {
			if pred(c) {
				return true
			}
		}
		return false
	}
	scalar := func(c cell) bool {
		return c.sys.Kind == sim.SysIO || c.sys.Kind == sim.SysO3 || c.sys.Kind == sim.SysO3IV
	}
	small := workloads.Small()
	var out []cell
	need := func(covered bool, kernel string, sys sim.Config) {
		if !covered {
			out = append(out, cell{kernel: pick(small, kernel)[0], sys: sys})
		}
	}
	need(has(func(c cell) bool { return scalar(c) && hitKernels[c.kernel.Name] }), "mmult", sim.Config{Kind: sim.SysO3})
	need(has(func(c cell) bool { return scalar(c) && missKernels[c.kernel.Name] }), "backprop", sim.Config{Kind: sim.SysO3})
	need(has(func(c cell) bool { return c.sys.Kind == sim.SysO3IV }), "vvadd", sim.Config{Kind: sim.SysO3IV})
	need(has(func(c cell) bool { return c.sys.Kind == sim.SysO3DV }), "vvadd", sim.Config{Kind: sim.SysO3DV})
	need(has(func(c cell) bool { return c.sys.Kind == sim.SysO3EVE }), "vvadd", faultSystem)
	return out
}

// runTraced is the per-layer measurement. One untraced pass gives the
// sweep, GC and fault-outcome metrics; then every cell is traced and
// replayed layer by layer, and the simulated counts are pooled over the
// traced cells.
func runTraced(s *setup, o options, res *result, out, stderr io.Writer) error {
	w := s.w
	// Probe cells fill a separate set, read only for a layer no workload
	// cell reached.
	ls, probeLS := layerSet{}, layerSet{}
	m := res.Metrics

	// Untraced pass.
	obs := &passObserver{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	results, _ := sweep.ForEach(w.sweepCells(), sweep.Options{Workers: w.workers, Observer: obs})
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	for i, r := range results {
		judge(s, i, r, res, stderr)
	}
	n := float64(len(w.cells))
	m["sweep.idle_frac"] = metric{1 - obs.busy.Seconds()/(wall.Seconds()*float64(w.workers)), "frac"}
	m["sweep.retries"] = metric{float64(obs.retries), "count"}
	m["gc.cycles_per_cell"] = metric{float64(m1.NumGC-m0.NumGC) / n, "count"}
	m["gc.pause_ms_per_cell"] = metric{float64(m1.PauseTotalNs-m0.PauseTotalNs) / n / 1e6, "ms"}

	var outcomes [4]int
	for i, c := range w.cells {
		if c.fault != nil {
			outcomes[faults.Classify(results[i].Err, results[i].MemChecksum, c.baseSum)]++
		}
	}
	m["faults.masked"] = metric{float64(outcomes[faults.Masked]), "count"}
	m["faults.detected"] = metric{float64(outcomes[faults.Detected]), "count"}
	m["faults.sdc"] = metric{float64(outcomes[faults.SDC]), "count"}
	m["faults.crash"] = metric{float64(outcomes[faults.Crash]), "count"}

	// Traced pass, one cell at a time: each sim cell runs untraced and
	// traced back to back (the tracing overhead), then replays layer by
	// layer. A fault workload traces its kernels fault-free.
	l := &spanLog{t0: time.Now()}
	var untracedNs, tracedNs int64
	var tracedOps uint64
	var simResults, probeResults []sim.Result
	var labels []string
	traceOne := func(c cell, idx int, probe bool) *sim.Result {
		l.cell = len(labels)
		labels = append(labels, c.label())
		set := ls
		if probe {
			set = probeLS
		}
		var r sim.Result
		var why string
		res.Attempted++
		l.time("cell", 1, func() {
			l.time("sim.run", 1, func() { r = c.run() })
			if idx >= 0 {
				if why = s.chk.check(idx, r); why != "" {
					return
				}
			}
			var uns, tns int64
			if uns, tns, why = traceCell(l, set, c, r); why == "" && !probe {
				untracedNs += uns
				tracedNs += tns
				tracedOps += c.opsOf(r)
			}
		})
		if why != "" {
			res.Failed++
			fmt.Fprintf(stderr, "FAIL %s (traced): %s\n", c.label(), why)
			return nil
		}
		return &r
	}
	var faultKernels []*workloads.Kernel
	for i, c := range w.cells {
		if c.fault != nil {
			if !containsKernel(faultKernels, c.kernel) {
				faultKernels = append(faultKernels, c.kernel)
			}
			continue
		}
		if r := traceOne(c, i, false); r != nil {
			simResults = append(simResults, *r)
		}
	}
	for _, k := range faultKernels {
		if r := traceOne(cell{kernel: k, sys: faultSystem}, -1, false); r != nil {
			simResults = append(simResults, *r)
		}
	}
	for _, c := range probeCells(w) {
		if r := traceOne(c, -1, true); r != nil {
			probeResults = append(probeResults, *r)
		}
	}
	// Fault-free datapath runs: the workload's kernels, or a probe.
	datapathKernels, dpSet := faultKernels, ls
	if len(faultKernels) == 0 {
		datapathKernels, dpSet = pick(workloads.Small(), "vvadd"), probeLS
	}
	for _, k := range datapathKernels {
		l.cell = len(labels)
		labels = append(labels, "datapath "+k.Name+"/"+faultSystem.Name())
		traceDatapath(l, dpSet, k, faultSystem)
	}
	l.cell = -1
	traceUProg(l, ls, faultSystem.N, hwvlOf(faultSystem))

	simulatedCounts(m, simResults, probeResults)
	m["trace.overhead_frac"] = metric{1 - float64(untracedNs)/float64(tracedNs), "frac"}
	fmt.Fprintf(out, "tracing overhead: untraced %.4g Mops/s, traced %.4g Mops/s over the same cells\n",
		float64(tracedOps)/float64(untracedNs)*1e3, float64(tracedOps)/float64(tracedNs)*1e3)

	for _, lm := range layerMetrics {
		a, fromProbe := ls.get(lm.name), false
		if a.calls == 0 && a.invalid == "" {
			a, fromProbe = probeLS.get(lm.name), true
		}
		switch {
		case a.invalid != "":
			fmt.Fprintf(out, "INVALID %s: %s\n", lm.name, a.invalid)
		case a.calls == 0:
			fmt.Fprintf(out, "INVALID %s: no cell reached this layer\n", lm.name)
		default:
			m[lm.name] = metric{a.total / a.calls * lm.scale, lm.unit}
			if fromProbe {
				fmt.Fprintf(out, "%s measured on probe cells\n", lm.name)
			}
		}
	}
	return writeSpans(filepath.Join(o.root, ".bench_build", "spans-"+w.name+".json"), w, labels, l.spans)
}

func containsKernel(ks []*workloads.Kernel, k *workloads.Kernel) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}

// simulatedCounts pools the simulated cache and EVE counters over the
// workload's cells, or over the probe cells for a count none of the
// workload's cells has (no EVE cell, no scalar access). A host-only change
// must leave every one of them exactly equal.
func simulatedCounts(m map[string]metric, cells, probes []sim.Result) {
	sum := func(rs []sim.Result, name string) float64 {
		t := 0.0
		for _, r := range rs {
			if name == "cycles" {
				t += float64(r.Cycles)
				continue
			}
			v, _ := r.Stats.Int(name)
			t += float64(v)
		}
		return t
	}
	ratio := func(metricName, unit string, num func([]sim.Result) float64, den string) {
		rs := cells
		if sum(rs, den) == 0 {
			rs = probes
		}
		if d := sum(rs, den); d > 0 {
			m[metricName] = metric{num(rs) / d, unit}
		}
	}
	for _, lv := range []string{"l1d", "l2", "llc"} {
		ratio(lv+".hit_ratio", "frac", func(rs []sim.Result) float64 {
			return sum(rs, lv+".accesses") - sum(rs, lv+".misses")
		}, lv+".accesses")
	}
	for _, lv := range []string{"l2", "llc"} {
		ratio(lv+".mshr_stall_frac", "frac", func(rs []sim.Result) float64 { return sum(rs, lv+".mshr.stall_cycles") }, "cycles")
	}
	ratio("eve.vmu_lines_per_instr", "lines", func(rs []sim.Result) float64 { return sum(rs, "eve.vmu.lines") }, "eve.instrs")
}

// writeSpans writes the traced run's spans, with the cell each span's
// Cell index names (-1 is the uprog probe), as one JSON document.
func writeSpans(path string, w *workload, labels []string, spans []span) error {
	blob, err := json.Marshal(map[string]any{"workload": w.name, "seed": w.seed, "cells": labels, "spans": spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
