package main

import (
	"fmt"
	"hash/fnv"

	"repro/internal/eve"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// Workload names, in the order the benchmark documents them.
const (
	wMatrixSmall   = "matrix-small"
	wScalarDefault = "scalar-default"
	wVectorDefault = "vector-default"
	wFaultDatapath = "fault-datapath"
)

var workloadNames = []string{wMatrixSmall, wScalarDefault, wVectorDefault, wFaultDatapath}

// faultSystem is the system fault-datapath injects into, and
// sitesPerKernel how many sites each Small() kernel gets per pass.
var faultSystem = sim.Config{Kind: sim.SysO3EVE, N: 8}

const sitesPerKernel = 1

var allKinds = []faults.Kind{faults.KindBitFlip, faults.KindStuckSA, faults.KindWordlineDrop}

// cell is one timed unit of a workload: a kernel on a system, plus a fault
// site for fault-datapath cells.
type cell struct {
	kernel *workloads.Kernel
	sys    sim.Config
	fault  *faults.Fault
	// baseSum is the fault-free checksum a fault cell is classified against.
	baseSum uint64
	// ops is the kernel's fault-free isa.Mix.TotalOps for fault cells
	// (measured in set-up); sim cells count the ops of their own result.
	ops uint64
}

func (c cell) label() string {
	if c.fault != nil {
		return c.kernel.Name + "/" + c.sys.Name() + "+" + c.fault.String()
	}
	return c.kernel.Name + "/" + c.sys.Name()
}

// run simulates the cell once. Every sim cell goes through sim.RunTraced
// with a nil tracer, as eve-bench does, so the result carries the
// flat-memory checksum the reference pins.
func (c cell) run() sim.Result {
	if c.fault == nil {
		return sim.RunTraced(c.sys, c.kernel, nil)
	}
	f := *c.fault
	r, _ := sim.RunDatapath(c.sys, c.kernel, func(hwvl int) isa.Datapath {
		dp := faults.NewDatapath(c.sys.N, hwvl, c.sys.MaxUProgCycles)
		dp.Arm(f)
		return dp
	})
	return r
}

// opsOf is the simulated work a completed cell counts toward sim_mops_per_s.
func (c cell) opsOf(r sim.Result) uint64 {
	if c.fault != nil {
		return c.ops
	}
	return r.Mix.TotalOps()
}

// workload is one fully built benchmark input.
type workload struct {
	name    string
	seed    int64
	workers int
	cells   []cell
}

func (w *workload) sweepCells() []sweep.Cell {
	out := make([]sweep.Cell, len(w.cells))
	for i, c := range w.cells {
		c := c
		out[i] = sweep.Cell{Kernel: c.kernel.Name, System: c.label(), Run: c.run}
	}
	return out
}

// smallScales are the Families scales at which each kernel does about as
// much work as its Small() version: Families fix some dimensions smaller
// than Small does (mmult is 3×5×scale against Small's 8×8×64), so the
// scale makes up the product. fp-saxpy is not in Small and is left out.
var smallScales = map[string]int{
	"vvadd": 1 << 10, "mmult": 273, "k-means": 683, "pathfinder": 1365,
	"jacobi-2d": 32, "backprop": 819, "sw": 48, "spmv": 85,
	"streamcluster-dist": 356, "redux": 1000,
}

// smallKernels is Small() at seed 0 and the Families at Small's scales,
// re-seeded, otherwise.
func smallKernels(seed int64) []*workloads.Kernel {
	if seed == 0 {
		return workloads.Small()
	}
	var out []*workloads.Kernel
	for _, f := range workloads.Families() {
		if sc, ok := smallScales[f.Name]; ok {
			out = append(out, f.Make(sc, uint64(seed)))
		}
	}
	return out
}

func pick(suite []*workloads.Kernel, names ...string) []*workloads.Kernel {
	out := make([]*workloads.Kernel, len(names))
	for i, n := range names {
		k, err := workloads.ByName(suite, n)
		if err != nil {
			panic(err) // the names below are fixed suite members
		}
		out[i] = k
	}
	return out
}

func grid(kernels []*workloads.Kernel, systems []sim.Config) []cell {
	var out []cell
	for _, k := range kernels {
		for _, s := range systems {
			out = append(out, cell{kernel: k, sys: s})
		}
	}
	return out
}

func eveSys(n int) sim.Config { return sim.Config{Kind: sim.SysO3EVE, N: n} }

// buildWorkload makes a workload's cells from its seed. Only matrix-small
// and fault-datapath depend on the seed: scalar-default and vector-default
// keep the canonical Default() inputs, because Families clamps scale below
// the sizes that make their working sets exceed the 2 MB LLC.
func buildWorkload(name string, seed int64, ref *reference) (*workload, error) {
	w := &workload{name: name, seed: seed, workers: 1}
	switch name {
	case wMatrixSmall:
		w.workers = 2
		w.cells = grid(smallKernels(seed), sim.AllSystems())
	case wScalarDefault:
		// Hit-heavy mmult and sw first, so the warm-up cell is a cheap one.
		ks := pick(workloads.Default(), "mmult", "sw", "backprop", "k-means")
		w.cells = grid(ks, []sim.Config{{Kind: sim.SysO3}, {Kind: sim.SysO3IV}})
	case wVectorDefault:
		w.cells = grid(workloads.Default(), []sim.Config{{Kind: sim.SysO3DV}, eveSys(1), eveSys(8), eveSys(32)})
	case wFaultDatapath:
		cells, err := faultCells(seed, ref)
		if err != nil {
			return nil, err
		}
		w.cells = cells
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// faultCells samples sitesPerKernel sites per Small() kernel on
// faultSystem. Seed 0 takes the sites of the pinned faults.Run report, so
// each cell's outcome can be compared with it; another seed re-samples
// sites with faults.Sites from the pinned fault-free profiles.
func faultCells(seed int64, ref *reference) ([]cell, error) {
	if ref == nil || ref.Faults == nil {
		return nil, fmt.Errorf("fault-datapath needs the pinned faults report")
	}
	hwvl := eve.New(eve.DefaultConfig(faultSystem.N), nil).HWVL()
	var out []cell
	for _, k := range workloads.Small() {
		kr, err := faultKernel(ref.Faults, k.Name)
		if err != nil {
			return nil, err
		}
		ops := kernelOps(k, hwvl)
		var sites []faults.Fault
		if seed == 0 {
			for _, c := range kr.Cells {
				sites = append(sites, c.Fault)
			}
		} else {
			sites = faults.Sites(kernelSeed(seed, k.Name), kr.Profile, sitesPerKernel, allKinds)
		}
		for i := range sites {
			out = append(out, cell{kernel: k, sys: faultSystem, fault: &sites[i], baseSum: kr.BaselineChecksum, ops: ops})
		}
	}
	return out, nil
}

// kernelOps runs k functionally (no timing model) and returns its
// dynamic operation count at hardware vector length hwvl.
func kernelOps(k *workloads.Kernel, hwvl int) uint64 {
	b := isa.NewBuilder(mem.NewFlat(64<<20), hwvl, nil)
	k.Run(b, true)
	return b.Mix().TotalOps()
}

// kernelSeed derives one kernel's site-sampling seed from the run seed.
func kernelSeed(seed int64, kernel string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, kernel)
	return int64(h.Sum64() >> 1)
}
