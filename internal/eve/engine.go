package eve

import (
	"math"

	"repro/internal/analytic"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/vengine"
	"repro/internal/vreg"
)

// Category labels one slice of EVE's execution-time breakdown (Fig 7).
type Category int

// Fig 7's nine categories.
const (
	Busy       Category = iota // executing useful work
	VRUStall                   // VRU structural hazard
	LdMemStall                 // load memory stall
	StMemStall                 // store memory stall
	LdDTStall                  // load transposing stall
	StDTStall                  // store detransposing stall
	VMUStall                   // VMU structural hazard
	EmptyStall                 // no instruction available
	DepStall                   // register dependency
	NumCategories
)

var categoryNames = [...]string{
	"busy", "vru_stall", "ld_mem_stall", "st_mem_stall",
	"ld_dt_stall", "st_dt_stall", "vmu_stall", "empty_stall", "dep_stall",
}

func (c Category) String() string { return categoryNames[c] }

// Breakdown is cycles attributed per category; it sums to the engine's
// total execution time.
type Breakdown [NumCategories]int64

// Total sums all categories.
func (b Breakdown) Total() int64 {
	var t int64
	for _, v := range b {
		t += v
	}
	return t
}

// Config parameterizes an EVE engine instance (Table III: EVE-x, in-order
// issue, one exec pipe).
type Config struct {
	N      int // parallelization factor
	Arrays int // EVE SRAMs (32: half of the L2's 64 sub-arrays, paired)
	DTUs   int // data transpose units (8)
	// StreamBits is the SRAM read bandwidth B feeding the VRU (§V-D).
	StreamBits int
	// MaxUProgCycles bounds each micro-program run on the cost-model
	// machine; zero selects uprog.DefaultMaxCycles (watchdog, see
	// uprog.CycleLimitError).
	MaxUProgCycles int
}

// DefaultConfig returns the paper's EVE-n configuration. StreamBits is §V-D's
// B, the SRAM read bandwidth feeding the VRU's E = B/n detranspose ports.
func DefaultConfig(n int) Config {
	return Config{N: n, Arrays: 32, DTUs: 8, StreamBits: 256}
}

// regState tracks readiness of one architectural vector register.
type regState struct {
	vmuT    int64    // request generation start (delayed by a busy VMU)
	memT    int64    // data arrived from the memory system
	fullT   int64    // including transpose into the arrays
	memCat  Category // what to charge while waiting below memT
	fullCat Category // what to charge between memT and fullT
	storeT  int64    // a store is reading this register until storeT (WAR)
}

// Engine is one ephemeral vector engine.
type Engine struct {
	cfg     Config
	cost    *costModel
	llc     mem.Level
	geom    vreg.Geometry
	penalty float64
	segs    int

	clock   int64 // VSU timeline, in core cycles
	vcu     int64 // VCU dispatch timeline: one macro-operation per cycle
	vmuFree int64 // VMU request-generation pipeline
	stFree  int64 // store data-write port (writes drain behind generation)
	vruFree int64
	// The 8 DTUs are split between inbound transposes (loads) and outbound
	// detransposes (stores); a single shared timeline would falsely
	// serialize a load's transpose behind a later-dispatched store whose
	// data only materializes after long compute.
	dtuLd    float64
	dtuSt    float64
	regs     [32]regState
	lastLoad int64 // completion horizon of outstanding loads
	lastStW  int64 // completion horizon of outstanding store writes

	queue vengine.Queue // the VCU queue between core commit and EVE
	// Scratch reused by every memory macro-op: its line stream and each
	// line's completion time.
	lineBuf []uint64
	doneBuf []int64

	brk           Breakdown
	vmuIssueStall int64
	vmuLines      uint64
	instrs        uint64
	spawnCost     int64
	energyReadEq  float64
	vlDist        probe.DistValue // active vector length per instruction
	linesDist     probe.DistValue // cachelines per memory macro-op

	// Reconfiguration lifecycle: the engine's claim on borrowed L2 ways and
	// the monotonic edge counters. waysOwned is instantaneous (a gauge);
	// the counters are cumulative and identical whether or not an interval
	// sampler watches them.
	waysOwned    int
	spawns       int64
	teardowns    int64
	waysBorrowed int64
	waysReturned int64
	sampler      *probe.Sampler // optional interval timeline; nil = off

	// Per-run trace emitters; zero (disabled) unless SetTracer installs a
	// tracer. The engine traces as three parallel tracks: the VSU timeline
	// (phase attribution + instruction commits), the VMU request streams,
	// and the DTU transpose traffic.
	vsu probe.Emitter
	vmu probe.Emitter
	dtu probe.Emitter
}

// SetTracer attaches a per-run event tracer (nil to disable). The engine
// emits under "eve.vsu" (Fig 7 phase spans and per-instruction commit
// events carrying seq, disassembly, VL, VCU slot and core-block time),
// "eve.vmu" (load/store request streams) and "eve.dtu" (transpose and
// detranspose spans).
func (e *Engine) SetTracer(tr probe.Tracer) {
	e.vsu = probe.NewEmitter(tr, "eve.vsu")
	e.vmu = probe.NewEmitter(tr, "eve.vmu")
	e.dtu = probe.NewEmitter(tr, "eve.dtu")
}

// ProbeStats implements probe.Source, publishing the engine's counters —
// including the full Fig 7 breakdown and the Fig 8 VMU stall cycles — into
// the hierarchical registry.
func (e *Engine) ProbeStats(s *probe.Scope) {
	s.CounterU("instrs", e.instrs)
	s.Counter("cycles", e.clock)
	s.Counter("spawn.cost", e.spawnCost)
	s.Counter("vmu.issue_stall", e.vmuIssueStall)
	s.CounterU("vmu.lines", e.vmuLines)
	s.Float("energy.read_eq", e.energyReadEq)
	for c := Category(0); c < NumCategories; c++ {
		s.Counter("breakdown."+c.String(), e.brk[c])
	}
	s.Dist("vl", e.vlDist)
	s.Dist("vmu.lines_per_op", e.linesDist)
	s.Counter("reconfig.spawns", e.spawns)
	s.Counter("reconfig.teardowns", e.teardowns)
	s.Counter("reconfig.ways_borrowed", e.waysBorrowed)
	s.Counter("reconfig.ways_returned", e.waysReturned)
}

// ProbeGauges implements probe.GaugeSource: the engine's instantaneous
// state per window — how many borrowed L2 ways it currently owns and how
// full the VCU dispatch queue is.
func (e *Engine) ProbeGauges(s *probe.Scope, now int64) {
	s.Counter("ways_owned", int64(e.waysOwned))
	s.Counter("queue.occupancy", int64(e.queue.Occupancy()))
}

// SetSampler attaches a per-run interval sampler (nil to disable); the
// engine reports its reconfiguration edges — spawn, way borrow, way return,
// teardown — onto the sampler's timeline. Attach before Spawn so the first
// borrow lands on the timeline.
func (e *Engine) SetSampler(s *probe.Sampler) { e.sampler = s }

// New builds an engine issuing memory requests to the given LLC-side port.
func New(cfg Config, llc mem.Level) *Engine {
	return &Engine{
		cfg:     cfg,
		cost:    newCostModel(cfg.N, cfg.MaxUProgCycles),
		llc:     llc,
		geom:    vreg.Standard(cfg.N),
		penalty: analytic.ClockPenalty(cfg.N),
		segs:    32 / cfg.N,
	}
}

// HWVL reports the hardware vector length (Table III).
func (e *Engine) HWVL() int { return e.geom.HWVL(e.cfg.Arrays) }

// Breakdown returns the Fig 7 execution-time breakdown.
func (e *Engine) Breakdown() Breakdown { return e.brk }

// VMUIssueStallFraction reports Fig 8's metric: the share of execution time
// the VMU spent stalled trying to hand a request to the LLC.
func (e *Engine) VMUIssueStallFraction() float64 {
	if e.clock == 0 {
		return 0
	}
	return float64(e.vmuIssueStall) / float64(e.clock)
}

// Instrs reports vector instructions executed.
func (e *Engine) Instrs() uint64 { return e.instrs }

// SpawnCost reports the L2 reconfiguration cycles charged at spawn.
func (e *Engine) SpawnCost() int64 { return e.spawnCost }

// EnergyReadEq reports cumulative EVE SRAM array energy in read-equivalents
// (§VI-B weights), summed over active arrays: micro-program accesses plus
// DTU row transfers and VRU streaming reads.
func (e *Engine) EnergyReadEq() float64 { return e.energyReadEq }

// activeArrays reports how many EVE SRAMs participate for a given active
// vector length (inactive arrays are clock-gated).
func (e *Engine) activeArrays(vl int) int {
	per := e.geom.ElementsPerArray()
	act := (vl + per - 1) / per
	if act > e.cfg.Arrays {
		act = e.cfg.Arrays
	}
	if act < 1 {
		act = 1
	}
	return act
}

// Spawn charges the L2 way-partition reconfiguration (§V-E) starting at
// time `at` (when the spawning instruction reached the engine); no vector
// work proceeds until the released ways are invalidated. ways is how many
// L2 ways the partition handed over — the engine owns them until Teardown.
func (e *Engine) Spawn(cost, at int64, ways int) {
	e.spawnCost = cost
	e.waysOwned = ways
	e.spawns++
	e.waysBorrowed += int64(ways)
	e.vsu.Instant(probe.KPhase, "spawn", at)
	e.vsu.Emit(probe.Event{Kind: probe.KReconfig, Name: "borrow", Begin: at, End: at, Aux: int64(ways)})
	if e.sampler != nil {
		e.sampler.Reconfig(probe.ReconfigEvent{Comp: "eve", Cycle: at, Event: "spawn", Owned: ways, Cost: cost})
		e.sampler.Reconfig(probe.ReconfigEvent{Comp: "eve", Cycle: at, Event: "borrow", Ways: ways, Owned: ways})
	}
	e.advanceTo(at, EmptyStall)
	e.advanceTo(e.clock+cost, Busy)
	if e.vcu < e.clock {
		e.vcu = e.clock
	}
}

// Teardown ends the ephemeral lifetime at time `at`: the engine gives its
// borrowed L2 ways back to the partition (the restore itself is free — the
// returned ways re-enter the replacement set empty, §V-E) and records the
// return edge. Call after the engine has drained.
func (e *Engine) Teardown(at int64) {
	returned := e.waysOwned
	e.teardowns++
	e.waysReturned += int64(returned)
	e.waysOwned = 0
	e.vsu.Emit(probe.Event{Kind: probe.KReconfig, Name: "return", Begin: at, End: at, Aux: int64(returned)})
	if e.sampler != nil {
		e.sampler.Reconfig(probe.ReconfigEvent{Comp: "eve", Cycle: at, Event: "return", Ways: returned, Owned: 0})
		e.sampler.Reconfig(probe.ReconfigEvent{Comp: "eve", Cycle: at, Event: "teardown", Owned: 0})
	}
}

// advanceTo moves the VSU clock forward, charging the gap to cat. Each
// charged gap becomes a KPhase span on the eve.vsu track, so a Perfetto
// timeline of the run shows Fig 7's attribution cycle by cycle.
func (e *Engine) advanceTo(t int64, cat Category) {
	if t > e.clock {
		e.brk[cat] += t - e.clock
		e.vsu.Span(probe.KPhase, cat.String(), e.clock, t)
		e.clock = t
	}
}

// busy charges d micro-op cycles of useful work, scaled by the EVE-n clock
// penalty (§VI: EVE-16/32 cycle slower).
func (e *Engine) busy(d int) {
	c := int64(math.Ceil(float64(d) * e.penalty))
	e.vsu.Span(probe.KPhase, "busy", e.clock, e.clock+c)
	e.clock += c
	e.brk[Busy] += c
}

// waitReg stalls the VSU until register r's data is usable, charging the
// producer's categories.
func (e *Engine) waitReg(r int) {
	st := &e.regs[r]
	e.advanceTo(st.vmuT, VMUStall)
	e.advanceTo(st.memT, st.memCat)
	e.advanceTo(st.fullT, st.fullCat)
}

// waitWAR stalls until any store reading r has finished draining it.
func (e *Engine) waitWAR(r int) {
	e.advanceTo(e.regs[r].storeT, StDTStall)
}

func (e *Engine) setComputed(r int) {
	e.regs[r].vmuT = 0
	e.regs[r].memT, e.regs[r].fullT = e.clock, e.clock
	e.regs[r].memCat, e.regs[r].fullCat = DepStall, DepStall
}

// dtuServe runs one cacheline through the transpose units: an aggregate
// server of DTUs parallel units per direction, each spending segs cycles per
// line. Inbound transposes (loads) and outbound detransposes (stores) keep
// separate timelines: a single shared one would falsely serialize a load's
// transpose behind a later-dispatched store whose data only materializes
// after long compute, and the full-duplex approximation matches how the
// paper's DTUs sit between two independently-ported structures.
func (e *Engine) dtuServe(readyAt int64, store bool) int64 {
	units := float64(e.cfg.DTUs)
	svc := float64(e.segs) / units * e.penalty
	next := &e.dtuLd
	if store {
		next = &e.dtuSt
	}
	start := float64(readyAt)
	if *next > start {
		start = *next
	}
	*next = start + svc
	return int64(math.Ceil(*next))
}

// vmuIssue streams line requests to the LLC port at one per cycle, blocking
// on MSHR back-pressure, and returns the time of the last issue slot plus
// each line's completion time. The completion times alias e.doneBuf and are
// valid until the next call.
func (e *Engine) vmuIssue(lines []uint64, write bool, start int64) (int64, []int64) {
	t := start
	dones := e.doneBuf[:0]
	for _, la := range lines {
		r := e.llc.Access(la, write, t)
		if r.Accepted > t {
			e.vmuIssueStall += r.Accepted - t
		}
		t = r.Accepted + 1
		//evelint:allow hotalloc -- amortized: doneBuf grows to the longest line stream once, then reuses
		dones = append(dones, r.Done)
		e.vmuLines++
	}
	e.doneBuf = dones
	return t, dones
}

// moveCycles charges the extra register-move micro-ops needed when operands
// live in different column sub-groups (§II: the column under-utilization
// penalty for small parallelization factors).
func (e *Engine) moveCycles(in *isa.Instr) int {
	if e.geom.ColumnGroups() == 1 {
		return 0
	}
	dst := e.geom.SubColumn(in.Vd & 31)
	moves := 0
	if in.Vs1&31 != in.Vd&31 && e.geom.SubColumn(in.Vs1&31) != dst {
		moves++
	}
	if in.Kind == isa.KindVV && in.Vs2&31 != in.Vd&31 && e.geom.SubColumn(in.Vs2&31) != dst {
		moves++
	}
	return moves * 2 * e.segs
}

// Handle processes one committed vector instruction arriving from the core
// at time `arrival`, returning the time the core must wait until before
// continuing (0 when it need not wait).
//
// The VCU consumes one instruction per cycle in order; memory macro-ops are
// forwarded to the VMU/DTUs without occupying the VSU, so request generation
// and data movement overlap outstanding compute (§V, §VII-B: "these stalls
// ... can be hidden by overlapping outstanding compute in EVE").
func (e *Engine) Handle(in *isa.Instr, arrival int64) int64 {
	e.instrs++
	e.vcu++
	if arrival > e.vcu {
		e.vcu = arrival
	}

	var reply, dispatched int64
	switch {
	case in.Op == isa.OpSetVL:
		e.advanceTo(e.vcu, EmptyStall)
		e.busy(1)
		dispatched = e.clock
	case in.Op == isa.OpFence:
		// Drain all pending memory traffic (§V-A).
		e.advanceTo(e.vcu, EmptyStall)
		e.advanceTo(e.lastLoad, LdMemStall)
		e.advanceTo(e.lastStW, StMemStall)
		e.busy(1)
		reply = e.clock
		dispatched = e.clock
	case in.Op == isa.OpMvXS:
		e.advanceTo(e.vcu, EmptyStall)
		e.waitReg(in.Vs1)
		e.busy(e.cost.Cycles(in))
		reply = e.clock
		dispatched = e.clock
	case isa.IsMemory(in.Op) && !isa.IsStore(in.Op):
		dispatched = e.load(in)
	case isa.IsStore(in.Op):
		dispatched = e.store(in)
	case isReduction(in.Op):
		e.advanceTo(e.vcu, EmptyStall)
		e.reduce(in)
		dispatched = e.clock
	case isCrossElement(in.Op):
		e.advanceTo(e.vcu, EmptyStall)
		e.crossElement(in)
		dispatched = e.clock
	default:
		e.advanceTo(e.vcu, EmptyStall)
		e.arith(in)
		dispatched = e.clock
	}

	block := e.queue.Push(dispatched)
	if reply > block {
		block = reply
	}
	e.vlDist.Observe(int64(in.VL))
	if e.vsu.On() {
		e.vsu.Emit(probe.Event{
			Kind:  probe.KInstr,
			Name:  isa.Disassemble(in),
			Begin: arrival,
			End:   e.clock,
			Seq:   e.instrs,
			VL:    in.VL,
			Aux:   e.vcu,
			Aux2:  block,
		})
	}
	return block
}

func (e *Engine) arith(in *isa.Instr) {
	e.waitReg(in.Vs1)
	if in.Kind == isa.KindVV {
		e.waitReg(in.Vs2)
	}
	if in.Masked {
		e.waitReg(0)
	}
	e.waitWAR(in.Vd)
	e.busy(e.cost.Cycles(in) + e.moveCycles(in))
	e.energyReadEq += e.cost.Energy(in) * float64(e.activeArrays(in.VL))
	e.setComputed(in.Vd)
}

// load dispatches a load macro-op to the VMU at VCU time, without occupying
// the VSU: the requests stream to the LLC and returning lines transpose
// through the DTUs straight into the EVE SRAMs. Returns the dispatch time.
func (e *Engine) load(in *isa.Instr) int64 {
	start := e.vcu
	if e.vmuFree > start {
		start = e.vmuFree
	}
	if in.Op == isa.OpLoadIdx {
		// Index operands stream out of the arrays before request generation.
		if t := e.regs[in.Vs2].fullT + int64(e.segs); t > start {
			start = t
		}
	}
	// WAR: the incoming data must not overwrite a register a store is still
	// reading out.
	if t := e.regs[in.Vd].storeT; t > start {
		start = t
	}
	dispatched := start

	e.lineBuf = vengine.Lines(e.lineBuf, in)
	lines := e.lineBuf
	e.linesDist.Observe(int64(len(lines)))
	lastIssue, dones := e.vmuIssue(lines, false, start)
	e.vmuFree = lastIssue

	// Arriving lines stream through the DTUs into the EVE SRAMs as they
	// return from the memory system. EVE-32 needs no transpose (§VII-B) but
	// still spends the row writes.
	var memDone, full int64
	for _, d := range dones {
		if d > memDone {
			memDone = d
		}
		if f := e.dtuServe(d, false); f > full {
			full = f
		}
	}
	if full < memDone {
		full = memDone
	}
	if e.vmu.On() {
		e.vmu.Emit(probe.Event{Kind: probe.KAccess, Name: "load",
			Begin: dispatched, End: memDone, Addr: in.Addr, VL: in.VL, Aux: int64(len(lines))})
		e.dtu.Span(probe.KAccess, "transpose", memDone, full)
	}
	st := &e.regs[in.Vd]
	st.vmuT = start // delay before request generation began = VMU pressure
	st.memT, st.fullT = memDone, full
	st.memCat, st.fullCat = LdMemStall, LdDTStall
	st.storeT = 0
	if memDone > e.lastLoad {
		e.lastLoad = memDone
	}
	// Each arriving line writes 32/n transposed rows into the arrays.
	e.energyReadEq += float64(len(lines) * e.segs)
	return dispatched
}

// store dispatches a store macro-op: the DTUs detranspose the register out
// of the arrays once its data is ready, then the VMU issues the writes. The
// VSU is not occupied. Returns the dispatch time.
func (e *Engine) store(in *isa.Instr) int64 {
	src := &e.regs[in.Vs1]
	start := max(e.vcu, src.vmuT, src.memT, src.fullT)
	if in.Op == isa.OpStoreIdx {
		if t := e.regs[in.Vs2].fullT + int64(e.segs); t > start {
			start = t
		}
	}
	dispatched := start

	e.lineBuf = vengine.Lines(e.lineBuf, in)
	lines := e.lineBuf
	e.linesDist.Observe(int64(len(lines)))
	// Request generation (addresses are known at dispatch) occupies the VMU
	// pipeline in order, but the data writes drain through a separate store
	// port so subsequent loads are not held behind data-dependent stores.
	gen := e.vcu
	if e.vmuFree > gen {
		gen = e.vmuFree
	}
	e.vmuFree = gen + int64(len(lines))

	// Detranspose: the DTUs read the register out of the arrays line by
	// line; the register is WAR-busy until the read-out finishes.
	var detransDone int64
	for range lines {
		detransDone = e.dtuServe(start, true)
	}
	src.storeT = detransDone

	issueAt := detransDone
	if gen > issueAt {
		issueAt = gen
	}
	if e.stFree > issueAt {
		issueAt = e.stFree
	}
	lastIssue, dones := e.vmuIssue(lines, true, issueAt)
	e.stFree = lastIssue
	drain := lastIssue
	for _, d := range dones {
		if d > drain {
			drain = d
		}
	}
	if drain > e.lastStW {
		e.lastStW = drain
	}
	if e.vmu.On() {
		e.dtu.Span(probe.KAccess, "detranspose", start, detransDone)
		e.vmu.Emit(probe.Event{Kind: probe.KAccess, Name: "store",
			Begin: issueAt, End: drain, Addr: in.Addr, VL: in.VL, Aux: int64(len(lines))})
	}
	// Detransposing reads 32/n rows per outgoing line.
	e.energyReadEq += float64(len(lines) * e.segs)
	return dispatched
}

func (e *Engine) reduce(in *isa.Instr) {
	e.waitReg(in.Vs2)
	e.waitReg(in.Vs1)
	if e.vruFree > e.clock {
		e.advanceTo(e.vruFree, VRUStall)
	}
	// The VSU streams B/n elements per read over 32/n segment reads: the
	// whole register streams in VL·32/B cycles of VSU work (§V-D).
	stream := (in.VL*32 + e.cfg.StreamBits - 1) / e.cfg.StreamBits
	e.busy(stream)
	e.energyReadEq += float64(stream) // one row read per streamed beat
	// The VRU's trailing dot-product and linear reduction over E ports.
	ports := e.cfg.StreamBits / e.cfg.N
	vruDone := e.clock + int64(math.Ceil(float64(ports+8)*e.penalty))
	e.vruFree = vruDone
	st := &e.regs[in.Vd]
	st.memT, st.fullT = vruDone, vruDone
	st.memCat, st.fullCat = VRUStall, VRUStall
}

func (e *Engine) crossElement(in *isa.Instr) {
	e.waitReg(in.Vs1)
	if in.Op == isa.OpRGather {
		e.waitReg(in.Vs2)
	}
	if e.vruFree > e.clock {
		e.advanceTo(e.vruFree, VRUStall)
	}
	stream := (in.VL*32 + e.cfg.StreamBits - 1) / e.cfg.StreamBits
	cost := 2 * stream // stream out and write back
	if in.Op == isa.OpRGather {
		cost += in.VL / 8 // permute network serialization
	}
	e.busy(cost)
	e.energyReadEq += float64(2 * stream)
	e.vruFree = e.clock
	e.setComputed(in.Vd)
}

// Drain completes all outstanding work and returns the engine's finish time.
func (e *Engine) Drain() int64 {
	e.advanceTo(e.lastLoad, LdMemStall)
	e.advanceTo(int64(math.Ceil(max(e.dtuLd, e.dtuSt))), LdDTStall)
	e.advanceTo(e.lastStW, StMemStall)
	e.advanceTo(e.vruFree, VRUStall)
	return e.clock
}

func isReduction(o isa.Op) bool {
	switch o {
	case isa.OpRedSum, isa.OpRedMin, isa.OpRedMax, isa.OpRedMinU, isa.OpRedMaxU:
		return true
	}
	return false
}

func isCrossElement(o isa.Op) bool {
	switch o {
	case isa.OpSlide1Up, isa.OpSlide1Down, isa.OpRGather:
		return true
	}
	return false
}
