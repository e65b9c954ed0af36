package uprog

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/uop"
)

// decodedForms lists every instruction form Decode maps to micro-programs:
// each op × .vv/.vx × masked/unmasked, with every .vx shift amount.
func decodedForms(l Layout) []*isa.Instr {
	var forms []*isa.Instr
	for op := isa.OpNop; op <= isa.OpFence; op++ {
		for _, kind := range []isa.OperandKind{isa.KindVV, isa.KindVX} {
			for _, masked := range []bool{false, true} {
				amounts := []uint32{0}
				if kind == isa.KindVX && (op == isa.OpSll || op == isa.OpSrl || op == isa.OpSra) {
					amounts = nil
					for k := uint32(0); k < 32; k++ {
						amounts = append(amounts, k)
					}
				}
				for _, k := range amounts {
					in := &isa.Instr{Op: op, Kind: kind, Masked: masked, Scalar: k}
					if _, ok := Decode(l, in, 3, 1, 2); ok {
						forms = append(forms, in)
					}
				}
			}
		}
	}
	return forms
}

// TestDecodeCoversArrayOps pins which operations run on the arrays: the 34
// integer ALU, multiply/divide and compare ops decode; vid, memory,
// reductions, slides, gathers, scalar moves and control do not.
func TestDecodeCoversArrayOps(t *testing.T) {
	l := NewLayout(8)
	decoded := 0
	for op := isa.OpNop; op <= isa.OpFence; op++ {
		steps, ok := Decode(l, &isa.Instr{Op: op}, 3, 1, 2)
		if !ok {
			continue
		}
		decoded++
		if len(steps) != 1 || steps[0].Prog == nil {
			t.Errorf("%v.vv decodes to %d steps, want one program", op, len(steps))
		}
		if c := isa.Classify(op); c != isa.ClassIALU && c != isa.ClassIMul {
			t.Errorf("%v (class %v) decodes to micro-programs; it moves through the ports", op, c)
		}
	}
	if decoded != 34 {
		t.Errorf("%d ops decode, want 34", decoded)
	}
	if _, ok := Decode(l, &isa.Instr{Op: isa.OpVId}, 3, 1, 2); ok {
		t.Error("vid decodes; its indices stream in through the data port")
	}
}

// TestDecodeCostIndependentOfRegisters checks the assumption behind the EVE
// timing model's generic register ids: a decoded macro-op's total cycles and
// per-class energy counts are the same for (d, a, b) = (3, 1, 2) as for any
// other distinct register triple.
func TestDecodeCostIndependentOfRegisters(t *testing.T) {
	triples := [][3]int{{5, 9, 17}, {31, 30, 29}, {1, 2, 3}, {2, 0, 31}, {16, 31, 0}}
	type cost struct {
		cycles int
		energy [uop.NumEnergyClasses]uint64
	}
	measure := func(m *Machine, in *isa.Instr, d, a, b int) cost {
		steps, _ := Decode(m.Layout, in, d, a, b)
		before := m.EnergyCounts()
		var c cost
		for _, s := range steps {
			c.cycles += m.CountCycles(s.Prog)
		}
		c.energy = m.EnergyCounts()
		for i := range c.energy {
			c.energy[i] -= before[i]
		}
		return c
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		m := NewMachine(n, 2)
		for _, in := range decodedForms(m.Layout) {
			want := measure(m, in, 3, 1, 2)
			for _, r := range triples {
				if got := measure(m, in, r[0], r[1], r[2]); got != want {
					name := fmt.Sprintf("EVE-%d %s (shift %d)", n, isa.Disassemble(in), ShiftAmount(in))
					t.Errorf("%s: registers %v cost %+v, (3, 1, 2) cost %+v", name, r, got, want)
				}
			}
		}
	}
}
