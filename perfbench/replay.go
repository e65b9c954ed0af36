package main

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/analytic"
	"repro/internal/cpu"
	"repro/internal/eve"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/vengine"
)

// Captured streams are packed one event per uint64 so a cell of the
// default suite (millions of events) fits in tens of MB. The top two bits
// hold the kind; the rest hold a count, or a 27-bit address and a 35-bit
// access time.
const (
	kOps uint64 = iota
	kMuls
	kLoad
	kStore

	addrBits = 27 // the 64 MiB flat store
	timeBits = 35
)

func packCount(kind uint64, n int) uint64 { return kind<<62 | uint64(n) }

func packAccess(kind uint64, addr uint64, t int64) (uint64, bool) {
	if addr >= 1<<addrBits || t < 0 || t >= 1<<timeBits {
		return 0, false
	}
	return kind<<62 | uint64(t)<<addrBits | addr, true
}

func unpack(e uint64) (kind uint64, addr uint64, t int64, n int) {
	kind = e >> 62
	if kind == kOps || kind == kMuls {
		return kind, 0, 0, int(e & (1<<62 - 1))
	}
	return kind, e & (1<<addrBits - 1), int64(e>>addrBits) & (1<<timeBits - 1), 0
}

// coreCapture is the probe.Tracer handed to sim.RunTraced: it keeps the
// core's own calls (ops and multiply batches, loads and stores with the
// cycle each access was issued at) and ignores every other component.
type coreCapture struct {
	calls    []uint64
	accesses int64
	overflow bool
}

func (c *coreCapture) Event(ev probe.Event) {
	if ev.Comp != "core" || ev.Kind != probe.KInstr {
		return
	}
	switch ev.Name {
	case "ops":
		c.calls = append(c.calls, packCount(kOps, int(ev.Aux)))
	case "muls":
		c.calls = append(c.calls, packCount(kMuls, int(ev.Aux)))
	case "load", "store":
		kind := kLoad
		if ev.Name == "store" {
			kind = kStore
		}
		e, ok := packAccess(kind, ev.Addr, ev.Begin)
		c.overflow = c.overflow || !ok
		c.calls = append(c.calls, e)
		c.accesses++
	}
}

// isaCapture is an isa.Sink recording the dynamic trace: scalar events
// packed, vector instructions copied (the timing models only read them).
type isaCapture struct {
	events []uint64 // scalar events, packed
	vec    []isa.Instr
	order  []int32 // per event: index into vec, or -1 for a scalar event
	// overflow is set when an address did not fit the packing.
	overflow bool
}

func (c *isaCapture) Emit(ev isa.Event) {
	switch ev.Kind {
	case isa.EvScalar:
		c.events = append(c.events, packCount(kOps, ev.N))
	case isa.EvScalarMul:
		c.events = append(c.events, packCount(kMuls, ev.N))
	case isa.EvLoad, isa.EvStore:
		kind := kLoad
		if ev.Kind == isa.EvStore {
			kind = kStore
		}
		e, ok := packAccess(kind, ev.Addr, 0)
		c.overflow = c.overflow || !ok
		c.events = append(c.events, e)
	case isa.EvVector:
		c.vec = append(c.vec, *ev.V)
		c.order = append(c.order, int32(len(c.vec)-1))
		return
	}
	c.order = append(c.order, -1)
}

// discard is the isa.Sink that times functional execution alone.
type discard struct{}

func (discard) Emit(isa.Event) {}

// lineAccess is one captured line request into a cache level.
type lineAccess struct {
	addr   uint64
	t      int64
	write  bool
	engine bool // issued by the vector engine, not by the level above
}

// tap is a mem.Level in front of a cache level that records every request
// it forwards, in order.
type tap struct {
	lower  mem.Level
	log    *[]lineAccess
	engine bool
}

func (t *tap) Access(addr uint64, write bool, at int64) mem.Result {
	*t.log = append(*t.log, lineAccess{addr: addr, t: at, write: write, engine: t.engine})
	return t.lower.Access(addr, write, at)
}

func (t *tap) Name() string { return t.lower.Name() }

// system is one simulated system rebuilt from public constructors, wired
// exactly as sim.Run wires it.
type system struct {
	h      *mem.Hierarchy
	core   *cpu.Core
	engine vengine.Engine
	eve    *eve.Engine
	reg    *probe.Registry
	hwvl   int
	// lines is the captured request stream into the level a DV or EVE
	// engine attaches to (L2 for DV, the LLC for EVE), from both the
	// engine and the cache above it.
	lines []lineAccess
}

func coreConfig(cfg sim.Config) cpu.Config {
	c := cpu.O3Config
	if cfg.Kind == sim.SysIO {
		c = cpu.IOConfig
	}
	if cfg.Kind == sim.SysO3EVE {
		c.ClockScale = analytic.ClockPenalty(cfg.N)
	}
	return c
}

// buildSystem assembles cfg's system. For DV and EVE the hierarchy is put
// together level by level so taps can sit in front of the engine's level;
// the taps only forward, so the simulated system is the one
// mem.NewHierarchy builds. spawn times the EVE spawn (construction plus
// the L2 reconfiguration).
func buildSystem(cfg sim.Config, spawn func(func())) *system {
	s := &system{reg: probe.NewRegistry(), hwvl: 1}
	dram := mem.DefaultDRAM()
	llc := mem.NewCache(mem.LLCConfig, dram)
	var l2 *mem.Cache
	var engineLevel mem.Level
	switch cfg.Kind {
	case sim.SysO3EVE:
		l2 = mem.NewCache(mem.L2Config, &tap{lower: llc, log: &s.lines})
		engineLevel = &tap{lower: llc, log: &s.lines, engine: true}
	case sim.SysO3DV:
		l2 = mem.NewCache(mem.L2Config, llc)
		engineLevel = &tap{lower: l2, log: &s.lines, engine: true}
	default:
		l2 = mem.NewCache(mem.L2Config, llc)
	}
	var l1Lower mem.Level = l2
	if cfg.Kind == sim.SysO3DV {
		l1Lower = &tap{lower: l2, log: &s.lines}
	}
	s.h = &mem.Hierarchy{L1D: mem.NewCache(mem.L1DConfig, l1Lower), L2: l2, LLC: llc, DRAM: dram}
	s.core = cpu.New(coreConfig(cfg), s.h)
	s.reg.Register("core", s.core)
	s.h.RegisterStats(s.reg)
	switch cfg.Kind {
	case sim.SysO3IV:
		iv := vengine.NewIV(s.core)
		s.reg.Register("iv", iv)
		s.engine, s.hwvl = iv, vengine.IVHWVL
	case sim.SysO3DV:
		dv := vengine.NewDV(vengine.DefaultDVConfig(), engineLevel)
		s.reg.Register("dv", dv)
		s.engine, s.hwvl = dv, dv.HWVL()
	case sim.SysO3EVE:
		spawn(func() {
			ecfg := eve.DefaultConfig(cfg.N)
			ecfg.MaxUProgCycles = cfg.MaxUProgCycles
			s.eve = eve.New(ecfg, engineLevel)
			cost := s.h.SpawnEVE()
			s.eve.Spawn(cost, 0, s.h.L2.Ways()-s.h.L2.ActiveWays())
		})
		s.reg.Register("eve", s.eve)
		s.engine, s.hwvl = s.eve, s.eve.HWVL()
	}
	return s
}

// hwvlOf is the hardware vector length cfg's builder runs at.
func hwvlOf(cfg sim.Config) int {
	return buildSystem(cfg, func(f func()) { f() }).hwvl
}

// vecStep is what one vector instruction did in a full replay: the lines
// its engine issued (a range of system.lines) and the cycle it blocked the
// core until.
type vecStep struct {
	from, to int
	block    int64
}

// replayFull drives the recorded dynamic trace through s exactly as
// sim.Run's sink does, and finishes the run the same way. It returns the
// cycles and, for DV and EVE, each vector instruction's step.
func replayFull(s *system, tr *isaCapture) (int64, []vecStep) {
	var steps []vecStep
	if s.engine != nil {
		steps = make([]vecStep, 0, len(tr.vec))
	}
	ev := 0
	for _, vi := range tr.order {
		if vi >= 0 {
			from := len(s.lines)
			block := s.engine.Handle(&tr.vec[vi], s.core.Now())
			if block > 0 {
				s.core.AdvanceTo(block)
			}
			steps = append(steps, vecStep{from: from, to: len(s.lines), block: block})
			continue
		}
		coreCall(s.core, tr.events[ev])
		ev++
	}
	return finish(s), steps
}

// coreCall applies one packed scalar event to the core.
func coreCall(c *cpu.Core, e uint64) {
	kind, addr, _, n := unpack(e)
	switch kind {
	case kOps:
		c.Ops(n)
	case kMuls:
		c.Muls(n)
	case kLoad:
		c.Load(addr)
	case kStore:
		c.Store(addr)
	}
}

// finish ends a run as sim.Run does: drain, tear EVE down, return cycles.
func finish(s *system) int64 {
	cycles := s.core.Now()
	if s.engine != nil {
		if d := s.engine.Drain(); d > cycles {
			cycles = d
		}
	}
	if s.eve != nil {
		s.h.TeardownEVE()
		s.eve.Teardown(cycles)
	}
	return cycles
}

// replayPlayback drives the same trace with the engine replaced by its
// recorded steps: each vector instruction re-issues its lines into the
// engine's level and blocks the core as the engine did. What the full
// replay costs beyond this one is the engine's own work.
func replayPlayback(s *system, tr *isaCapture, lines []lineAccess, steps []vecStep) int64 {
	var level mem.Level = s.h.L2
	if s.eve != nil {
		level = s.h.LLC
	}
	lvl := &tap{lower: level, log: &s.lines, engine: true}
	ev, vn := 0, 0
	for _, vi := range tr.order {
		if vi >= 0 {
			st := steps[vn]
			vn++
			for _, a := range lines[st.from:st.to] {
				lvl.Access(a.addr, a.write, a.t)
			}
			if st.block > 0 {
				s.core.AdvanceTo(st.block)
			}
			continue
		}
		coreCall(s.core, tr.events[ev])
		ev++
	}
	return s.core.Now()
}

// newCore builds a bare core over a fresh Table III hierarchy, with its
// stats registered.
func newCore(cfg sim.Config) *system {
	s := &system{reg: probe.NewRegistry(), h: mem.NewHierarchy()}
	s.core = cpu.New(coreConfig(cfg), s.h)
	s.reg.Register("core", s.core)
	s.h.RegisterStats(s.reg)
	return s
}

// replayCoreCalls drives the captured core call stream (which includes the
// calls IV makes on the core's behalf) into core.
func replayCoreCalls(core *cpu.Core, calls []uint64) {
	for _, e := range calls {
		coreCall(core, e)
	}
}

// replayCoreAccesses drives the captured (addr, write, t) stream of core
// loads and stores into h through CoreAccess.
func replayCoreAccesses(h *mem.Hierarchy, calls []uint64) {
	for _, e := range calls {
		kind, addr, t, _ := unpack(e)
		if kind == kLoad || kind == kStore {
			h.CoreAccess(addr, kind == kStore, t)
		}
	}
}

// newLevel builds a fresh copy of the cache level a DV or EVE engine
// attaches to: an L2 over an LLC for DV, an LLC for EVE. It returns the
// level and every cache built, by stats name.
func newLevel(cfg sim.Config) (*mem.Cache, map[string]*mem.Cache) {
	llc := mem.NewCache(mem.LLCConfig, mem.DefaultDRAM())
	if cfg.Kind != sim.SysO3DV {
		return llc, map[string]*mem.Cache{"llc": llc}
	}
	l2 := mem.NewCache(mem.L2Config, llc)
	return l2, map[string]*mem.Cache{"llc": llc, "l2": l2}
}

// replayLines drives a captured level input stream into level.
func replayLines(level *mem.Cache, lines []lineAccess) {
	for _, a := range lines {
		level.Access(a.addr, a.write, a.t)
	}
}

// sameStats reports the first stat under one of prefixes whose value in
// got differs from want, or "" when they all agree.
func sameStats(got, want probe.Stats, prefixes ...string) string {
	for _, p := range prefixes {
		g, w := got.Filter(p+"."), want.Filter(p+".")
		if len(w) == 0 {
			return fmt.Sprintf("no %s stats to compare", p)
		}
		if !reflect.DeepEqual(g, w) {
			for _, ws := range w {
				if gs, ok := g.Get(ws.Name); !ok || !reflect.DeepEqual(gs, ws) {
					return fmt.Sprintf("%s: replay %s, cell %s", ws.Name, statValue(gs), statValue(ws))
				}
			}
			return fmt.Sprintf("%s stats differ", p)
		}
	}
	return ""
}

// statValue renders a stat's value as the stats text format does.
func statValue(s probe.Stat) string {
	var b strings.Builder
	_ = probe.Stats{s}.WriteText(&b) // a strings.Builder write cannot fail
	return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(b.String()), s.Name))
}

// cacheStats renders bare caches' counters as a snapshot under their
// canonical stats names, for comparison with a cell's snapshot.
func cacheStats(levels map[string]*mem.Cache) probe.Stats {
	reg := probe.NewRegistry()
	for name, c := range levels {
		reg.Register(name, c)
	}
	return reg.Snapshot()
}
