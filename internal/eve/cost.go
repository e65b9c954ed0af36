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

// shiftKinds maps the shift macro-ops to their micro-program variants.
var shiftKinds = map[isa.Op]uprog.ShiftKind{
	isa.OpSll: uprog.ShSLL, isa.OpSrl: uprog.ShSRL, isa.OpSra: uprog.ShSRA,
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

// broadcastCost is the cost of staging a scalar operand into a scratch
// register through the data_in port (the .vx prologue).
func (c *costModel) broadcastCost() opCost {
	return c.run(uprog.WriteExt(c.layout, c.layout.ScratchID(uprog.BroadcastScratch), false))
}

func (c *costModel) lookup(in *isa.Instr) opCost {
	key := costKey{op: in.Op, vx: in.Kind == isa.KindVX, masked: in.Masked}
	switch in.Op {
	case isa.OpSll, isa.OpSrl, isa.OpSra:
		if in.Kind == isa.KindVX {
			key.imm = in.Scalar & 31
		}
	}
	if v, ok := c.cache[key]; ok {
		return v
	}
	v := c.measure(in, key)
	c.cache[key] = v
	return v
}

// Cycles reports the VSU cycles of one vector instruction's micro-program.
func (c *costModel) Cycles(in *isa.Instr) int { return c.lookup(in).cycles }

// Energy reports the per-array energy of one vector instruction's
// micro-program, in read-equivalents.
func (c *costModel) Energy(in *isa.Instr) float64 { return c.lookup(in).energy }

func (c *costModel) measure(in *isa.Instr, key costKey) opCost {
	l := c.layout
	// Generic register ids: results/operands land in fixed slots; costs do
	// not depend on which architectural registers are named.
	const d, a, b = 3, 1, 2
	m := key.masked

	var base opCost
	if key.vx {
		base = c.broadcastCost()
	}
	switch in.Op {
	case isa.OpAdd:
		return base.plus(c.run(uprog.Add(l, d, a, b, m)))
	case isa.OpSub:
		return base.plus(c.run(uprog.Sub(l, d, a, b, m)))
	case isa.OpRSub:
		return base.plus(c.run(uprog.RSub(l, d, a, b, m)))
	case isa.OpAnd:
		return base.plus(c.run(uprog.Logic(l, uop.SrcAnd, d, a, b, m)))
	case isa.OpOr:
		return base.plus(c.run(uprog.Logic(l, uop.SrcOr, d, a, b, m)))
	case isa.OpXor:
		return base.plus(c.run(uprog.Logic(l, uop.SrcXor, d, a, b, m)))
	case isa.OpSAdd:
		return base.plus(c.run(uprog.SatAdd(l, d, a, b, m)))
	case isa.OpSAddU:
		return base.plus(c.run(uprog.SatAddU(l, d, a, b, m)))
	case isa.OpSSub:
		return base.plus(c.run(uprog.SatSub(l, d, a, b, m)))
	case isa.OpSSubU:
		return base.plus(c.run(uprog.SatSubU(l, d, a, b, m)))
	case isa.OpMin:
		return base.plus(c.run(uprog.MinMax(l, false, true, d, a, b, m)))
	case isa.OpMax:
		return base.plus(c.run(uprog.MinMax(l, true, true, d, a, b, m)))
	case isa.OpMinU:
		return base.plus(c.run(uprog.MinMax(l, false, false, d, a, b, m)))
	case isa.OpMaxU:
		return base.plus(c.run(uprog.MinMax(l, true, false, d, a, b, m)))
	case isa.OpSll, isa.OpSrl, isa.OpSra:
		kind := shiftKinds[in.Op]
		if key.vx {
			// The VSU resolves the scalar amount at decode: no broadcast.
			return c.run(uprog.ShiftImm(l, kind, d, a, int(key.imm), m))
		}
		return c.run(uprog.ShiftVV(l, kind, d, a, b, m))
	case isa.OpMerge:
		return c.run(uprog.Merge(l, d, a, b))
	case isa.OpMv:
		if key.vx {
			return c.run(uprog.WriteExt(l, d, m)) // vmv.v.x is a pure broadcast
		}
		return c.run(uprog.Copy(l, d, a, m))
	case isa.OpVId:
		// Element indices stream in through the data_in port like a load's
		// writeback: one wr per segment.
		return c.run(uprog.WriteExt(l, d, m))
	case isa.OpMul:
		return base.plus(c.run(uprog.Mul(l, d, a, b, m, false)))
	case isa.OpMacc:
		return base.plus(c.run(uprog.Mul(l, d, a, b, m, true)))
	case isa.OpMulH:
		return base.plus(c.run(uprog.MulH(l, d, a, b, m)))
	case isa.OpDiv:
		return base.plus(c.run(uprog.DivRem(l, uprog.DivS, d, a, b, m)))
	case isa.OpDivU:
		return base.plus(c.run(uprog.DivRem(l, uprog.DivU, d, a, b, m)))
	case isa.OpRem:
		return base.plus(c.run(uprog.DivRem(l, uprog.RemS, d, a, b, m)))
	case isa.OpRemU:
		return base.plus(c.run(uprog.DivRem(l, uprog.RemU, d, a, b, m)))
	case isa.OpMSeq:
		return base.plus(c.run(uprog.Compare(l, uprog.CmpEq, d, a, b, m)))
	case isa.OpMSne:
		return base.plus(c.run(uprog.Compare(l, uprog.CmpNe, d, a, b, m)))
	case isa.OpMSlt:
		return base.plus(c.run(uprog.Compare(l, uprog.CmpLt, d, a, b, m)))
	case isa.OpMSltU:
		return base.plus(c.run(uprog.Compare(l, uprog.CmpLtu, d, a, b, m)))
	case isa.OpMSle:
		return base.plus(c.run(uprog.Compare(l, uprog.CmpLe, d, a, b, m)))
	case isa.OpMSleU:
		return base.plus(c.run(uprog.Compare(l, uprog.CmpLeu, d, a, b, m)))
	case isa.OpMSgt:
		return base.plus(c.run(uprog.Compare(l, uprog.CmpGt, d, a, b, m)))
	case isa.OpMSgtU:
		return base.plus(c.run(uprog.Compare(l, uprog.CmpGtu, d, a, b, m)))
	case isa.OpMvSX:
		// Write one element's segments through data_in.
		return opCost{cycles: 1 + l.Segs, energy: float64(l.Segs)}
	case isa.OpMvXS:
		// Stream one element's segments out.
		return opCost{cycles: 1 + l.Segs, energy: float64(l.Segs)}
	case isa.OpSetVL, isa.OpFence:
		return opCost{cycles: 1}
	default:
		panic(fmt.Sprintf("eve: no micro-program cost for %v", in.Op))
	}
}
