// Package sim assembles the simulated systems of Table III — IO, O3, O3+IV,
// O3+DV and O3+EVE-n — and runs benchmark kernels on them: the workload's
// dynamic trace streams from the ISA builder into the scalar core model and
// the attached vector engine, coupled the way the paper couples them
// (commit-time dispatch, queue back-pressure, blocking scalar moves and
// fences), over a shared timed memory hierarchy.
package sim

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/cpu"
	"repro/internal/eve"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/vengine"
	"repro/internal/workloads"
)

// Kind enumerates the simulated systems.
type Kind int

// Simulated systems (Table III).
const (
	SysIO Kind = iota
	SysO3
	SysO3IV
	SysO3DV
	SysO3EVE
)

// Config selects a system; N is the parallelization factor for SysO3EVE.
type Config struct {
	Kind Kind
	N    int

	// MaxUProgCycles is the per-micro-program watchdog budget for EVE
	// systems; zero selects uprog.DefaultMaxCycles. A tripped watchdog
	// panics with a *uprog.CycleLimitError, which Run recovers into a
	// *SimError. It does not contribute to Name(): two configs differing
	// only in the watchdog simulate the same system.
	MaxUProgCycles int

	// DTUs and Arrays override EVE's data transpose unit and SRAM array
	// counts for ablation studies; zero selects the eve.DefaultConfig
	// value. Like MaxUProgCycles they do not contribute to Name().
	DTUs, Arrays int

	// Interval, when positive, samples the stats registry every Interval
	// simulated cycles into Result.Intervals — per-window counter deltas,
	// gauges, and the EVE reconfiguration timeline. Sampling observes, it
	// never perturbs: every simulated byte (cycles, breakdown, stats,
	// memory image) is identical with Interval on or off, which the
	// interval-identity tests enforce. Zero (the default) keeps the fast
	// path: one pointer branch per instruction boundary. Like
	// MaxUProgCycles it does not contribute to Name().
	Interval int64

	// Mem optionally overrides the Table III memory system — cache
	// geometries, MSHR pools, bank counts, DRAM timings. Nil simulates the
	// paper's hierarchy. Design-space exploration (internal/campaign) sweeps
	// these axes per cell; every parameter still flows through a Config
	// struct, so the paramlit provenance discipline holds. Mem is read-only
	// after construction and may be shared across concurrent Run calls; it
	// does not contribute to Name() — campaign cells carry their own
	// content-hashed identity.
	Mem *MemParams
}

// MemParams overrides pieces of the Table III memory system. A zero-value
// cache level inherits that level's Table III configuration (the override's
// Name is likewise forced to the canonical level name so stats paths stay
// stable); zero DRAM fields inherit the DDR4-2400 timings.
type MemParams struct {
	L1D, L2, LLC mem.CacheConfig
	// DRAMLatency is the closed-page access latency in core cycles.
	DRAMLatency int64
	// DRAMCyclesPerLine is the bus occupancy of one 64-byte line transfer.
	DRAMCyclesPerLine float64
	// CoRunners injects that many co-running cores' worth of synthetic
	// traffic between the LLC and DRAM — the shared-LLC CMP setting the
	// paper frames EVE in (§I). Each streams coRunnerLinesPer1K lines.
	CoRunners int
}

// coRunnerLinesPer1K is one co-running core's synthetic DRAM traffic in
// lines per 1000 cycles: a streaming kernel at full DRAM tilt.
const coRunnerLinesPer1K = 300

// hierarchy builds the memory system the config describes: Table III by
// default, with any MemParams overrides applied per level.
func (c Config) hierarchy() *mem.Hierarchy {
	if c.Mem == nil {
		return mem.NewHierarchy()
	}
	pick := func(over, def mem.CacheConfig) mem.CacheConfig {
		if over == (mem.CacheConfig{}) {
			return def
		}
		over.Name = def.Name
		return over
	}
	dram := mem.DefaultDRAM()
	if c.Mem.DRAMLatency > 0 {
		dram.Latency = c.Mem.DRAMLatency
	}
	if c.Mem.DRAMCyclesPerLine > 0 {
		dram.CyclesPerLine = c.Mem.DRAMCyclesPerLine
	}
	var lower mem.Level = dram
	if c.Mem.CoRunners > 0 {
		lower = mem.NewTrafficGenerator(dram, c.Mem.CoRunners*coRunnerLinesPer1K)
	}
	llc := mem.NewCache(pick(c.Mem.LLC, mem.LLCConfig), lower)
	l2 := mem.NewCache(pick(c.Mem.L2, mem.L2Config), llc)
	l1d := mem.NewCache(pick(c.Mem.L1D, mem.L1DConfig), l2)
	return &mem.Hierarchy{L1D: l1d, L2: l2, LLC: llc, DRAM: dram}
}

// Name renders the paper's system label.
func (c Config) Name() string {
	switch c.Kind {
	case SysIO:
		return "IO"
	case SysO3:
		return "O3"
	case SysO3IV:
		return "O3+IV"
	case SysO3DV:
		return "O3+DV"
	case SysO3EVE:
		return fmt.Sprintf("O3+EVE-%d", c.N)
	}
	return "?"
}

// AllSystems lists the full Table III / Fig 6 sweep.
func AllSystems() []Config {
	out := []Config{{Kind: SysIO}, {Kind: SysO3}, {Kind: SysO3IV}, {Kind: SysO3DV}}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		out = append(out, Config{Kind: SysO3EVE, N: n})
	}
	return out
}

// Result is one (system, kernel) simulation outcome.
type Result struct {
	System    string
	Kernel    string
	Cycles    int64
	Mix       isa.Mix
	Breakdown eve.Breakdown // zero except for EVE systems
	VMUStall  float64       // Fig 8 metric, EVE only
	SpawnCost int64         // EVE only
	EnergyEq  float64       // EVE array energy in read-equivalents (§VI-B)
	// Stats is the hierarchical end-of-run counter snapshot: every component
	// of the simulated system under its dotted path (core.insts,
	// l2.mshr.stall_cycles, eve.breakdown.busy, ...). Pulled once after the
	// run completes, so populating it costs nothing on the simulated path.
	// Empty when the run aborted with a recovered SimError.
	Stats probe.Stats
	// Intervals is the cycle-windowed time series when Config.Interval was
	// set: per-window counter deltas, end-of-window gauges, and the EVE
	// reconfiguration timeline. Nil when sampling was off or the run
	// aborted. Window sums reconcile exactly with Stats.
	Intervals *probe.Series
	// MemChecksum is the FNV-1a hash of the flat backing store after the run
	// — the silent-data-corruption signal. Computed by RunTraced and
	// RunDatapath (zero on a crash); plain Run leaves it zero to keep the
	// sweep fast path free of the O(memory) hash.
	MemChecksum uint64
	Err         error // output validation failure, if any
}

// System is one assembled Table III system — memory hierarchy, scalar core,
// optional vector engine, stats registry and the ISA builder whose dynamic
// trace drives them — over a caller-supplied flat backing store. It is the
// only place a system is wired: Run builds one per cell, and the public
// eve.Machine builds one and programs it directly through Builder.
//
// EVE is ephemeral (§V-E): the engine spawns out of the L2's ways when the
// first vector instruction arrives, paying the way-partition invalidation
// cost of whatever the scalar code left resident, and hands the ways back
// at Finish.
type System struct {
	cfg      Config
	h        *mem.Hierarchy
	core     *cpu.Core
	engine   vengine.Engine
	eveEng   *eve.Engine // non-nil on EVE systems
	b        *isa.Builder
	reg      *probe.Registry
	sampler  *probe.Sampler // interval sampling; nil = the fast path
	checksum bool           // hash the flat store at Finish
	spawned  bool
	finished bool
}

// NewSystem assembles the system cfg describes over flat.
func NewSystem(cfg Config, flat *mem.Flat) *System {
	return newSystem(cfg, flat, runOpts{})
}

func newSystem(cfg Config, flat *mem.Flat, opts runOpts) *System {
	h := cfg.hierarchy()
	coreCfg := cpu.O3Config
	if cfg.Kind == SysIO {
		coreCfg = cpu.IOConfig
	}
	if cfg.Kind == SysO3EVE {
		// EVE-16/32 stretch the chip's SRAM-limited cycle time, slowing the
		// scalar core as well (§VII-B).
		coreCfg.ClockScale = analytic.ClockPenalty(cfg.N)
	}
	s := &System{cfg: cfg, h: h, core: cpu.New(coreCfg, h), checksum: opts.checksum}

	// The stats registry pulls counters once after the run; registration is
	// unconditional because it costs nothing on the simulated path. The
	// tracer, by contrast, is only wired when present: an unset probe.Emitter
	// is the zero-overhead fast path.
	s.reg = probe.NewRegistry()
	s.reg.Register("core", s.core)
	h.RegisterStats(s.reg)
	if opts.tracer != nil {
		s.core.SetTracer(opts.tracer)
		h.SetTracer(opts.tracer)
	}

	// The interval sampler is per-run like the registry it reads; nil keeps
	// the instruction-boundary tick a single branch.
	if cfg.Interval > 0 {
		s.sampler = probe.NewSampler(s.reg, cfg.Interval)
	}

	hwvl := 1
	switch cfg.Kind {
	case SysO3IV:
		iv := vengine.NewIV(s.core)
		s.reg.Register("iv", iv)
		s.engine = iv
		hwvl = vengine.IVHWVL
	case SysO3DV:
		dv := vengine.NewDV(vengine.DefaultDVConfig(), h.L2)
		s.reg.Register("dv", dv)
		if opts.tracer != nil {
			dv.SetTracer(opts.tracer)
		}
		s.engine = dv
		hwvl = dv.HWVL()
	case SysO3EVE:
		ecfg := eve.DefaultConfig(cfg.N)
		ecfg.MaxUProgCycles = cfg.MaxUProgCycles
		if cfg.DTUs > 0 {
			ecfg.DTUs = cfg.DTUs
		}
		if cfg.Arrays > 0 {
			ecfg.Arrays = cfg.Arrays
		}
		s.eveEng = eve.New(ecfg, h.LLC)
		s.reg.Register("eve", s.eveEng)
		if opts.tracer != nil {
			s.eveEng.SetTracer(opts.tracer)
		}
		s.eveEng.SetSampler(s.sampler)
		s.engine = s.eveEng
		hwvl = s.eveEng.HWVL()
	}

	s.b = isa.NewBuilder(flat, hwvl, s)
	if opts.newDP != nil {
		s.b.SetDatapath(opts.newDP(hwvl))
	}
	return s
}

// Builder returns the ISA builder that programs the system: its scalar
// events and vector instructions stream into the core and the engine.
func (s *System) Builder() *isa.Builder { return s.b }

// Emit implements isa.Sink, coupling the trace to the core and the vector
// engine.
func (s *System) Emit(ev isa.Event) {
	if s.finished {
		panic("sim: system used after Finish")
	}
	switch ev.Kind {
	case isa.EvScalar:
		s.core.Ops(ev.N)
	case isa.EvScalarMul:
		s.core.Muls(ev.N)
	case isa.EvLoad:
		s.core.Load(ev.Addr)
	case isa.EvStore:
		s.core.Store(ev.Addr)
	case isa.EvVector:
		if s.engine == nil {
			panic(fmt.Sprintf("sim: vector instruction %v on scalar system %s", ev.V.Op, s.cfg.Name()))
		}
		if s.eveEng != nil && !s.spawned {
			s.spawned = true
			cost := s.h.SpawnEVE()
			s.eveEng.Spawn(cost, s.core.Now(), s.h.L2.Ways()-s.h.L2.ActiveWays())
		}
		// Vector instructions dispatch at commit (§V-A); the VCU queue or a
		// blocking reply (vmv.x.s, vmfence) may stall the core.
		if block := s.engine.Handle(ev.V, s.core.Now()); block > 0 {
			s.core.AdvanceTo(block)
		}
	}
	// Instruction boundaries are the interval clock: the simulation is
	// event-driven, so this is the natural deterministic place to notice a
	// window edge passing. Reading the clock perturbs nothing.
	if s.sampler != nil {
		s.sampler.Tick(s.core.Now())
	}
}

// Finish drains all in-flight work, ends a spawned engine's lifetime and
// returns the result; Kernel and Err are the caller's to fill. The system
// must not be used afterwards.
func (s *System) Finish() Result {
	cycles := s.core.Now()
	if s.engine != nil {
		if d := s.engine.Drain(); d > cycles {
			cycles = d
		}
	}
	res := Result{System: s.cfg.Name(), Cycles: cycles, Mix: s.b.Mix()}
	if s.eveEng != nil {
		res.Breakdown = s.eveEng.Breakdown()
		res.VMUStall = s.eveEng.VMUIssueStallFraction()
		res.SpawnCost = s.eveEng.SpawnCost()
		res.EnergyEq = s.eveEng.EnergyReadEq()
	}
	if s.spawned {
		// The engine's ephemeral lifetime ends here: it returns its borrowed
		// L2 ways to the partition. The restore itself changes no counters
		// (returned ways come back invalid, §V-E), so the simulated bytes
		// stay identical whether or not anyone watches the timeline.
		s.h.TeardownEVE()
		s.eveEng.Teardown(cycles)
	}
	if s.sampler != nil {
		res.Intervals = s.sampler.Finish(cycles)
	}
	res.Stats = s.reg.Snapshot()
	if s.checksum {
		res.MemChecksum = s.b.Mem.Checksum()
	}
	s.finished = true
	return res
}

// Run simulates one kernel on one system.
//
// Purity contract: Run builds every piece of simulator state it touches —
// memory hierarchy, flat backing store, core model, vector engine and its
// micro-program cost cache, workload inputs — per call, reads only
// immutable package-level tables (Table III configs, encoding maps), and
// is fully deterministic in (cfg, k). Concurrent Run calls are therefore
// independent and race-free; internal/sweep relies on this to parallelize
// the grid, and TestConcurrentRunsArePure plus the determinism test in
// internal/sweep enforce it under the race detector.
func Run(cfg Config, k *workloads.Kernel) Result {
	return run(cfg, k, runOpts{})
}

// RunTraced is Run with observability attached: every component's trace
// events are delivered to tr (nil is allowed and traces nothing), and the
// result additionally carries the flat-memory checksum. Apart from the
// checksum field, a traced run must produce a Result identical to Run's —
// probes observe, they never perturb — which the determinism regression
// test enforces across all systems.
func RunTraced(cfg Config, k *workloads.Kernel, tr probe.Tracer) Result {
	return run(cfg, k, runOpts{tracer: tr, checksum: true})
}

// RunDatapath simulates one kernel on one system with the vector unit's
// execution re-routed onto an alternate substrate: newDP is called with the
// system's hardware vector length and the returned datapath is attached to
// the ISA builder (isa.Builder.SetDatapath). The second return value is the
// final flat-memory checksum when the run completed (zero on a crash) —
// the silent-data-corruption signal fault campaigns compare against a
// fault-free baseline. A nil newDP behaves exactly like Run.
func RunDatapath(cfg Config, k *workloads.Kernel, newDP func(hwvl int) isa.Datapath) (Result, uint64) {
	res := run(cfg, k, runOpts{newDP: newDP, checksum: newDP != nil})
	return res, res.MemChecksum
}

// runOpts bundles the optional per-run attachments.
type runOpts struct {
	newDP    func(hwvl int) isa.Datapath
	tracer   probe.Tracer // nil = no event emission (the fast path)
	checksum bool         // hash the flat store after the run
}

func run(cfg Config, k *workloads.Kernel, opts runOpts) (res Result) {
	s := newSystem(cfg, mem.NewFlat(64<<20), opts)
	res = Result{System: cfg.Name(), Kernel: k.Name}

	// Fault-reachable invariants — a wild memory access, the micro-program
	// watchdog — panic with typed errors; convert those into a recoverable
	// per-cell SimError carrying the abort cycle. Anything else is a
	// simulator bug and keeps panicking.
	defer func() {
		if p := recover(); p != nil {
			err, subsystem := recoverable(p)
			if err == nil {
				panic(p)
			}
			res.Err = &SimError{
				System:    res.System,
				Kernel:    res.Kernel,
				Cycle:     s.core.Now(),
				Subsystem: subsystem,
				Err:       err,
			}
		}
	}()

	check := k.Run(s.b, s.engine != nil)
	err := check()
	res = s.Finish()
	res.Kernel = k.Name
	res.Err = err
	return res
}

// Matrix runs every kernel on every system, returning results indexed
// [kernel][system]. It is the serial reference implementation of the
// sweep: internal/sweep.Matrix produces an identical matrix on a worker
// pool, and the determinism regression test compares the two cell by cell.
func Matrix(systems []Config, kernels []*workloads.Kernel) [][]Result {
	out := make([][]Result, len(kernels))
	for i, k := range kernels {
		out[i] = make([]Result, len(systems))
		for j, s := range systems {
			out[i][j] = Run(s, k)
		}
	}
	return out
}
