// Package eve implements the EVE micro-architecture (paper §V): the vector
// control unit (VCU) receiving committed vector instructions from the core,
// the vector sequencing unit (VSU) executing micro-programs on the EVE
// SRAMs, the vector memory unit (VMU) generating cacheline requests against
// the LLC, the vector reduction unit (VRU), and the data transpose units
// (DTUs) — together with the way-partitioned L2 reconfiguration and the
// nine-category execution-time breakdown of Fig 7.
//
// Timing follows the paper's methodology (§VII-A): instructions execute
// functionally in the ISA layer while EVE charges cycles derived from the
// *measured lengths of the real micro-programs* (internal/uprog) running on
// the bit-level circuit model.
package eve

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/isa"
	"repro/internal/uop"
	"repro/internal/uprog"
)

// costKey identifies a macro-operation cost class.
type costKey struct {
	op     isa.Op
	vx     bool
	masked bool
	imm    uint32 // shift amounts make distinct micro-programs
}

// opCost is a macro-operation's measured cost: VSU cycles plus per-array
// energy in read-equivalents (§VI-B), both taken from one execution of the
// real micro-program.
type opCost struct {
	cycles int
	energy float64
}

// plus sums two costs, such as a .vx broadcast prologue and the operation.
func (a opCost) plus(b opCost) opCost {
	return opCost{cycles: a.cycles + b.cycles, energy: a.energy + b.energy}
}

// costModel lazily measures micro-program costs per macro-op.
type costModel struct {
	layout uprog.Layout
	mach   *uprog.Machine
	cache  map[costKey]opCost
}

func newCostModel(n, maxUProgCycles int) *costModel {
	m := uprog.NewMachine(n, 2)
	m.MaxCycles = maxUProgCycles
	return &costModel{layout: m.Layout, mach: m, cache: make(map[costKey]opCost)}
}

// run executes a program on the counting machine, returning its cost.
func (c *costModel) run(p *uop.Program) opCost {
	before := c.mach.EnergyCounts()
	cycles := c.mach.CountCycles(p)
	after := c.mach.EnergyCounts()
	for i := range after {
		after[i] -= before[i]
	}
	return opCost{cycles: cycles, energy: analytic.EnergyReadEq(after)}
}

func (c *costModel) lookup(in *isa.Instr) opCost {
	key := costKey{op: in.Op, vx: in.Kind == isa.KindVX, masked: in.Masked, imm: uprog.ShiftAmount(in)}
	if v, ok := c.cache[key]; ok {
		return v
	}
	v := c.measure(in)
	c.cache[key] = v
	return v
}

// Cycles reports the VSU cycles of one vector instruction's micro-program.
func (c *costModel) Cycles(in *isa.Instr) int { return c.lookup(in).cycles }

// Energy reports the per-array energy of one vector instruction's
// micro-program, in read-equivalents.
func (c *costModel) Energy(in *isa.Instr) float64 { return c.lookup(in).energy }

// measure costs a macro-op as the sum of the micro-programs uprog.Decode
// maps it to (a .vx broadcast prologue included). Only the port operations,
// which Decode leaves to the data ports, are costed here.
func (c *costModel) measure(in *isa.Instr) opCost {
	l := c.layout
	// Generic register ids: results/operands land in fixed slots; costs do
	// not depend on which architectural registers are named.
	const d, a, b = 3, 1, 2
	if steps, ok := uprog.Decode(l, in, d, a, b); ok {
		var sum opCost
		for _, s := range steps {
			sum = sum.plus(c.run(s.Prog))
		}
		return sum
	}
	switch in.Op {
	case isa.OpVId:
		// Element indices stream in through the data_in port like a load's
		// writeback: one wr per segment.
		return c.run(uprog.WriteExt(l, d, in.Masked))
	case isa.OpMvSX, isa.OpMvXS:
		// Write one element's segments through data_in, or stream them out.
		return opCost{cycles: 1 + l.Segs, energy: float64(l.Segs)}
	}
	panic(fmt.Sprintf("eve: no micro-program cost for %v", in.Op))
}
