package faults

import (
	"repro/internal/circuits"
	"repro/internal/isa"
	"repro/internal/sram"
	"repro/internal/uprog"
)

// Datapath executes vector instructions on a real EVE circuit stack,
// implementing isa.Datapath. Every operation uprog.Decode maps to micro-
// programs runs those programs here — the same ones the timing model
// (internal/eve) costs — against a machine sized to hold the full hardware
// vector length; .vx forms stage their scalar through the reserved
// broadcast scratch register exactly as the VSU does. Operations that move
// data through the ports rather than the arrays — loads, slides, gathers,
// reductions, scalar moves — install the builder's golden result through
// the transposed data port instead (the port itself is not a modeled fault
// site).
//
// Fault-free, the substrate reproduces the golden ISA semantics exactly;
// TestZeroFaultDatapathMatchesGolden holds that equivalence over the full
// benchmark suite. Faults armed through Arm corrupt the substrate, and the
// builder adopts whatever the arrays now hold.
//
// A Datapath wraps single-threaded machine state and is not safe for
// concurrent use; campaigns build one per simulation.
type Datapath struct {
	mach  *uprog.Machine
	hwvl  int
	cols  int
	progs map[progKey][]uprog.Step
}

// progKey identifies a cached micro-program sequence. Unlike the timing
// model's costKey, it must include the concrete register operands:
// generated programs bake register row ids into their tuples, so a program
// built for one (d, a, b) triple cannot be reused for another.
type progKey struct {
	op      isa.Op
	vx      bool
	masked  bool
	imm     uint32
	d, a, b int
}

// NewDatapath builds a substrate for parallelization factor n holding hwvl
// elements. maxCycles is the per-micro-program watchdog budget (zero
// selects uprog.DefaultMaxCycles).
func NewDatapath(n, hwvl, maxCycles int) *Datapath {
	m := uprog.NewMachine(n, hwvl)
	m.MaxCycles = maxCycles
	return &Datapath{
		mach:  m,
		hwvl:  hwvl,
		cols:  m.Stack.Array().Cols(),
		progs: make(map[progKey][]uprog.Step),
	}
}

// Array exposes the backing SRAM array for fault arming and inspection.
func (dp *Datapath) Array() *sram.Array { return dp.mach.Stack.Array() }

// Stack exposes the peripheral circuit stack for fault arming.
func (dp *Datapath) Stack() *circuits.Stack { return dp.mach.Stack }

// Arm arms one fault on the substrate. Sites are reduced modulo the
// machine's geometry so a profile sampled on an identically configured run
// always lands in range.
func (dp *Datapath) Arm(f Fault) {
	arr := dp.mach.Stack.Array()
	switch f.Kind {
	case KindBitFlip:
		arr.ArmBitFlip(f.Row%arr.Rows(), f.Col%arr.Cols(), f.Seq)
	case KindStuckSA:
		arr.SetColumnStuck(f.Col%arr.Cols(), f.Stuck)
	case KindWordlineDrop:
		dp.mach.Stack.ArmWordlineDrop(f.Seq)
	}
}

// Profile reports the substrate geometry and the access counts accumulated
// so far; measured on a fault-free run, it spans the sequence space Sites
// samples fault sites from.
func (dp *Datapath) Profile() Profile {
	arr := dp.mach.Stack.Array()
	return Profile{
		Rows:     arr.Rows(),
		Cols:     arr.Cols(),
		Accesses: arr.Accesses(),
		BLCs:     dp.mach.Stack.BLCs(),
	}
}

// Read implements isa.Datapath: the live substrate contents of register r,
// streamed out through the data port.
func (dp *Datapath) Read(r int) []uint32 {
	out := make([]uint32, dp.hwvl)
	for i := range out {
		out[i] = dp.mach.LoadElement(r, i)
	}
	return out
}

// Exec implements isa.Datapath. golden is the builder's architecturally
// correct result for the destination register; the return value is what the
// register actually holds after the substrate executed the instruction.
func (dp *Datapath) Exec(in *isa.Instr, golden []uint32) []uint32 {
	if steps, ok := dp.decode(in); ok {
		return dp.runNative(in, steps, golden)
	}
	dp.install(in, golden)
	return golden
}

// decode returns the instruction's micro-program sequence from
// uprog.Decode, cached per operand form. ok is false for port-only
// operations, which install instead.
func (dp *Datapath) decode(in *isa.Instr) ([]uprog.Step, bool) {
	key := progKey{
		op: in.Op, vx: in.Kind == isa.KindVX, masked: in.Masked, imm: uprog.ShiftAmount(in),
		d: in.Vd, a: in.Vs1, b: in.Vs2,
	}
	if steps, ok := dp.progs[key]; ok {
		return steps, true
	}
	steps, ok := uprog.Decode(dp.mach.Layout, in, in.Vd, in.Vs1, in.Vs2)
	if ok {
		dp.progs[key] = steps
	}
	return steps, ok
}

// runNative executes the instruction's micro-program sequence, building
// each step's data_in rows afresh (a .vx broadcast carries this
// instruction's scalar). Micro-programs operate on every element the
// machine holds, while the ISA writes only the first VL, so the
// destination's tail is saved around the run and restored through the data
// port — the substrate equivalent of RVV's tail-undisturbed policy.
func (dp *Datapath) runNative(in *isa.Instr, steps []uprog.Step, golden []uint32) []uint32 {
	vd := in.Vd
	vl := min(in.VL, dp.hwvl)
	var tail []uint32
	if vl < dp.hwvl {
		tail = make([]uint32, dp.hwvl-vl)
		for i := range tail {
			tail[i] = dp.mach.LoadElement(vd, vl+i)
		}
	}
	for _, s := range steps {
		var env *circuits.Env
		if rows := s.Ext.Rows(dp.mach.Layout, dp.cols, in.Scalar); rows != nil {
			env = &circuits.Env{ExtRows: rows}
		}
		dp.mach.Run(s.Prog, env)
	}
	for i, v := range tail {
		dp.mach.StoreElement(vd, vl+i, v)
	}
	out := make([]uint32, len(golden))
	copy(out, golden)
	for i := 0; i < vl && i < len(out); i++ {
		out[i] = dp.mach.LoadElement(vd, i)
	}
	return out
}

// install writes the golden result into the substrate through the data
// port — the path for operations whose data never crosses the arrays'
// compute structures (loads, slides, gathers, reduction and scalar-move
// writebacks, vid).
func (dp *Datapath) install(in *isa.Instr, golden []uint32) {
	switch in.Op {
	case isa.OpMvSX, isa.OpRedSum, isa.OpRedMin, isa.OpRedMax, isa.OpRedMinU, isa.OpRedMaxU:
		// These write element 0 only.
		dp.mach.StoreElement(in.Vd, 0, golden[0])
	default:
		vl := min(in.VL, min(dp.hwvl, len(golden)))
		for i := 0; i < vl; i++ {
			dp.mach.StoreElement(in.Vd, i, golden[i])
		}
	}
}
