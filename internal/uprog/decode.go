package uprog

import (
	"repro/internal/bitmat"
	"repro/internal/isa"
	"repro/internal/uop"
)

// DataIn names the data_in rows a decoded micro-program reads.
type DataIn int

// Data_in row kinds.
const (
	NoDataIn    DataIn = iota // the program never reads data_in
	BroadcastIn               // the instruction's scalar, one row per segment (BroadcastRows)
	SatConstIn                // the signed clamp constants (SatConstRows)
	BitConstIn                // division's per-bit constants (BitConstRows)
	TopBitsIn                 // vsra's sign-fill row for the partial segment (TopBitsRow)
)

// Rows builds the data_in rows of kind k for an array cols columns wide.
// scalar is the instruction's scalar operand; only BroadcastIn and
// TopBitsIn read it. NoDataIn yields nil.
func (k DataIn) Rows(l Layout, cols int, scalar uint32) []bitmat.Row {
	switch k {
	case BroadcastIn:
		return BroadcastRows(l, cols, scalar)
	case SatConstIn:
		return SatConstRows(l, cols)
	case BitConstIn:
		return BitConstRows(l, cols)
	case TopBitsIn:
		return []bitmat.Row{TopBitsRow(l, cols, int(scalar&31)%l.N)}
	}
	return nil
}

// Step is one micro-program of a decoded macro-op and the data_in rows it
// reads.
type Step struct {
	Prog *uop.Program
	Ext  DataIn
}

// ShiftAmount reports the shift amount a .vx shift resolves at decode and
// bakes into its micro-program, and zero for every other form. A cache of
// decoded programs must key on it.
func ShiftAmount(in *isa.Instr) uint32 {
	switch in.Op {
	case isa.OpSll, isa.OpSrl, isa.OpSra:
		if in.Kind == isa.KindVX {
			return in.Scalar & 31
		}
	}
	return 0
}

// Decode maps a vector macro-op to the micro-programs the VSU runs for it,
// in order, computing d ← a op b over register ids d, a and b (as the
// generators take them). It is the one op→program table: the EVE timing
// model sums the steps' cycles and energy, and the fault datapath executes
// them.
//
// A .vx form reads the broadcast scratch register in place of b, behind a
// prologue that stages the scalar there through data_in, unmasked. Two .vx
// forms skip the prologue: shifts, whose amount the VSU resolves at decode
// into an immediate, and vmv.v.x, which writes the broadcast straight to d.
//
// ok is false for operations that move data through the ports rather than
// the arrays' compute structures: memory, reductions, slides, gathers,
// scalar moves and vid.
func Decode(l Layout, in *isa.Instr, d, a, b int) (steps []Step, ok bool) {
	vx := in.Kind == isa.KindVX
	if vx {
		b = l.ScratchID(BroadcastScratch)
	}
	m := in.Masked
	main := Step{}
	switch in.Op {
	case isa.OpAdd:
		main.Prog = Add(l, d, a, b, m)
	case isa.OpSub:
		main.Prog = Sub(l, d, a, b, m)
	case isa.OpRSub:
		main.Prog = RSub(l, d, a, b, m)
	case isa.OpAnd:
		main.Prog = Logic(l, uop.SrcAnd, d, a, b, m)
	case isa.OpOr:
		main.Prog = Logic(l, uop.SrcOr, d, a, b, m)
	case isa.OpXor:
		main.Prog = Logic(l, uop.SrcXor, d, a, b, m)
	case isa.OpSAdd:
		main = Step{SatAdd(l, d, a, b, m), SatConstIn}
	case isa.OpSAddU:
		main.Prog = SatAddU(l, d, a, b, m)
	case isa.OpSSub:
		main = Step{SatSub(l, d, a, b, m), SatConstIn}
	case isa.OpSSubU:
		main.Prog = SatSubU(l, d, a, b, m)
	case isa.OpMin:
		main.Prog = MinMax(l, false, true, d, a, b, m)
	case isa.OpMax:
		main.Prog = MinMax(l, true, true, d, a, b, m)
	case isa.OpMinU:
		main.Prog = MinMax(l, false, false, d, a, b, m)
	case isa.OpMaxU:
		main.Prog = MinMax(l, true, false, d, a, b, m)
	case isa.OpSll:
		return decodeShift(l, ShSLL, in, d, a, b), true
	case isa.OpSrl:
		return decodeShift(l, ShSRL, in, d, a, b), true
	case isa.OpSra:
		return decodeShift(l, ShSRA, in, d, a, b), true
	case isa.OpMerge:
		// Merge reads v0 itself; the Masked bit is not a tail predicate.
		main.Prog = Merge(l, d, a, b)
	case isa.OpMv:
		if vx {
			return []Step{{WriteExt(l, d, m), BroadcastIn}}, true
		}
		return []Step{{Copy(l, d, a, m), NoDataIn}}, true
	case isa.OpMul:
		main.Prog = Mul(l, d, a, b, m, false)
	case isa.OpMacc:
		main.Prog = Mul(l, d, a, b, m, true)
	case isa.OpMulH:
		main.Prog = MulH(l, d, a, b, m)
	case isa.OpDiv:
		main = Step{DivRem(l, DivS, d, a, b, m), BitConstIn}
	case isa.OpDivU:
		main = Step{DivRem(l, DivU, d, a, b, m), BitConstIn}
	case isa.OpRem:
		main = Step{DivRem(l, RemS, d, a, b, m), BitConstIn}
	case isa.OpRemU:
		main = Step{DivRem(l, RemU, d, a, b, m), BitConstIn}
	case isa.OpMSeq:
		main.Prog = Compare(l, CmpEq, d, a, b, m)
	case isa.OpMSne:
		main.Prog = Compare(l, CmpNe, d, a, b, m)
	case isa.OpMSlt:
		main.Prog = Compare(l, CmpLt, d, a, b, m)
	case isa.OpMSltU:
		main.Prog = Compare(l, CmpLtu, d, a, b, m)
	case isa.OpMSle:
		main.Prog = Compare(l, CmpLe, d, a, b, m)
	case isa.OpMSleU:
		main.Prog = Compare(l, CmpLeu, d, a, b, m)
	case isa.OpMSgt:
		main.Prog = Compare(l, CmpGt, d, a, b, m)
	case isa.OpMSgtU:
		main.Prog = Compare(l, CmpGtu, d, a, b, m)
	default:
		return nil, false
	}
	if vx {
		return []Step{{WriteExt(l, b, false), BroadcastIn}, main}, true
	}
	return []Step{main}, true
}

// decodeShift decodes a shift: .vv shifts each element by the low bits of b;
// .vx shifts by the immediate ShiftAmount, with no broadcast. A .vx
// arithmetic right shift whose amount leaves a partial segment reads the
// sign-fill row.
func decodeShift(l Layout, kind ShiftKind, in *isa.Instr, d, a, b int) []Step {
	if in.Kind != isa.KindVX {
		return []Step{{ShiftVV(l, kind, d, a, b, in.Masked), NoDataIn}}
	}
	k := int(ShiftAmount(in))
	rows := NoDataIn
	if kind == ShSRA && k%l.N != 0 {
		rows = TopBitsIn
	}
	return []Step{{ShiftImm(l, kind, d, a, k, in.Masked), rows}}
}
