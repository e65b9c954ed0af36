package eve

import (
	"fmt"
	"testing"

	"repro/internal/isa"
)

// costedOps lists every operation Engine.Handle sends to the cost model:
// its default (arith) branch and vmv.x.s. nop is never emitted.
func costedOps() []isa.Op {
	var ops []isa.Op
	for op := isa.OpNop + 1; op <= isa.OpFence; op++ {
		switch {
		case op == isa.OpSetVL, op == isa.OpFence, isa.IsMemory(op), isReduction(op), isCrossElement(op):
		default:
			ops = append(ops, op)
		}
	}
	return ops
}

// TestCostPositiveForEveryCostedOp needs no golden: every form Handle can
// charge through the cost model must cost a positive number of cycles and
// energy at every parallelization factor, without panicking.
func TestCostPositiveForEveryCostedOp(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		c := newCostModel(n, 0)
		for _, op := range costedOps() {
			for _, kind := range []isa.OperandKind{isa.KindVV, isa.KindVX} {
				for _, masked := range []bool{false, true} {
					in := &isa.Instr{Op: op, Kind: kind, Masked: masked, Vd: 3, Vs1: 1, Vs2: 2, Scalar: 5}
					name := fmt.Sprintf("EVE-%d %s", n, isa.Disassemble(in))
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Errorf("%s: cost model panicked: %v", name, r)
							}
						}()
						if cy, en := c.Cycles(in), c.Energy(in); cy <= 0 || en <= 0 {
							t.Errorf("%s: cost (%d cycles, %v energy), want both positive", name, cy, en)
						}
					}()
				}
			}
		}
	}
}
