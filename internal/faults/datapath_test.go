package faults_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/mem"
)

// opRef is one array-executed macro-op's element semantics: d is the
// destination's old value (vmacc accumulates into it), x the vs1 element
// and y the vs2 element or the .vx scalar.
type opRef struct {
	op isa.Op
	f  func(d, x, y uint32) uint32
}

func b2u(v bool) uint32 {
	if v {
		return 1
	}
	return 0
}

func sat32(s int64) uint32 {
	return uint32(max(min(s, 0x7FFFFFFF), -0x80000000))
}

// opRefs lists every operation uprog.Decode maps to micro-programs.
var opRefs = []opRef{
	{isa.OpAdd, func(_, x, y uint32) uint32 { return x + y }},
	{isa.OpSub, func(_, x, y uint32) uint32 { return x - y }},
	{isa.OpRSub, func(_, x, y uint32) uint32 { return y - x }},
	{isa.OpAnd, func(_, x, y uint32) uint32 { return x & y }},
	{isa.OpOr, func(_, x, y uint32) uint32 { return x | y }},
	{isa.OpXor, func(_, x, y uint32) uint32 { return x ^ y }},
	{isa.OpMin, func(_, x, y uint32) uint32 { return uint32(min(int32(x), int32(y))) }},
	{isa.OpMax, func(_, x, y uint32) uint32 { return uint32(max(int32(x), int32(y))) }},
	{isa.OpMinU, func(_, x, y uint32) uint32 { return min(x, y) }},
	{isa.OpMaxU, func(_, x, y uint32) uint32 { return max(x, y) }},
	{isa.OpSll, func(_, x, y uint32) uint32 { return x << (y & 31) }},
	{isa.OpSrl, func(_, x, y uint32) uint32 { return x >> (y & 31) }},
	{isa.OpSra, func(_, x, y uint32) uint32 { return uint32(int32(x) >> (y & 31)) }},
	{isa.OpSAdd, func(_, x, y uint32) uint32 { return sat32(int64(int32(x)) + int64(int32(y))) }},
	{isa.OpSAddU, func(_, x, y uint32) uint32 { return uint32(min(uint64(x)+uint64(y), 0xFFFFFFFF)) }},
	{isa.OpSSub, func(_, x, y uint32) uint32 { return sat32(int64(int32(x)) - int64(int32(y))) }},
	{isa.OpSSubU, func(_, x, y uint32) uint32 { return x - min(x, y) }},
	{isa.OpMerge, nil}, // selects on v0; see want
	{isa.OpMv, nil},    // vs1 for .vv, the scalar for .vx; see want
	{isa.OpMul, func(_, x, y uint32) uint32 { return x * y }},
	{isa.OpMulH, func(_, x, y uint32) uint32 { return uint32(uint64(x) * uint64(y) >> 32) }},
	{isa.OpMacc, func(d, x, y uint32) uint32 { return d + x*y }},
	{isa.OpDiv, func(_, x, y uint32) uint32 {
		switch {
		case y == 0:
			return ^uint32(0)
		case int32(x) == -1<<31 && int32(y) == -1:
			return x
		}
		return uint32(int32(x) / int32(y))
	}},
	{isa.OpDivU, func(_, x, y uint32) uint32 {
		if y == 0 {
			return ^uint32(0)
		}
		return x / y
	}},
	{isa.OpRem, func(_, x, y uint32) uint32 {
		switch {
		case y == 0:
			return x
		case int32(x) == -1<<31 && int32(y) == -1:
			return 0
		}
		return uint32(int32(x) % int32(y))
	}},
	{isa.OpRemU, func(_, x, y uint32) uint32 {
		if y == 0 {
			return x
		}
		return x % y
	}},
	{isa.OpMSeq, func(_, x, y uint32) uint32 { return b2u(x == y) }},
	{isa.OpMSne, func(_, x, y uint32) uint32 { return b2u(x != y) }},
	{isa.OpMSlt, func(_, x, y uint32) uint32 { return b2u(int32(x) < int32(y)) }},
	{isa.OpMSltU, func(_, x, y uint32) uint32 { return b2u(x < y) }},
	{isa.OpMSle, func(_, x, y uint32) uint32 { return b2u(int32(x) <= int32(y)) }},
	{isa.OpMSleU, func(_, x, y uint32) uint32 { return b2u(x <= y) }},
	{isa.OpMSgt, func(_, x, y uint32) uint32 { return b2u(int32(x) > int32(y)) }},
	{isa.OpMSgtU, func(_, x, y uint32) uint32 { return b2u(x > y) }},
}

// builderVV and builderVX are the isa.Builder intrinsics for the forms the
// builder offers; where one exists, the reference must agree with it.
var builderVV = map[isa.Op]func(b *isa.Builder, vd, vs1, vs2 int){
	isa.OpAdd: (*isa.Builder).Add, isa.OpSub: (*isa.Builder).Sub,
	isa.OpAnd: (*isa.Builder).And, isa.OpOr: (*isa.Builder).Or, isa.OpXor: (*isa.Builder).Xor,
	isa.OpMin: (*isa.Builder).Min, isa.OpMax: (*isa.Builder).Max,
	isa.OpMinU: (*isa.Builder).MinU, isa.OpMaxU: (*isa.Builder).MaxU,
	isa.OpSll: (*isa.Builder).Sll, isa.OpSrl: (*isa.Builder).Srl,
	isa.OpSAdd: (*isa.Builder).SAdd, isa.OpSAddU: (*isa.Builder).SAddU,
	isa.OpSSub: (*isa.Builder).SSub, isa.OpSSubU: (*isa.Builder).SSubU,
	isa.OpMerge: (*isa.Builder).Merge,
	isa.OpMv:    func(b *isa.Builder, vd, vs1, _ int) { b.Mv(vd, vs1) },
	isa.OpMul:   (*isa.Builder).Mul, isa.OpMulH: (*isa.Builder).MulH, isa.OpMacc: (*isa.Builder).Macc,
	isa.OpDiv: (*isa.Builder).Div, isa.OpDivU: (*isa.Builder).DivU,
	isa.OpMSeq: (*isa.Builder).MSeq, isa.OpMSne: (*isa.Builder).MSne,
	isa.OpMSlt: (*isa.Builder).MSlt, isa.OpMSltU: (*isa.Builder).MSltU,
}

var builderVX = map[isa.Op]func(b *isa.Builder, vd, vs1 int, x uint32){
	isa.OpAdd: (*isa.Builder).AddVX, isa.OpSub: (*isa.Builder).SubVX, isa.OpRSub: (*isa.Builder).RSubVX,
	isa.OpAnd: (*isa.Builder).AndVX, isa.OpOr: (*isa.Builder).OrVX, isa.OpXor: (*isa.Builder).XorVX,
	isa.OpMax: (*isa.Builder).MaxVX,
	isa.OpSll: (*isa.Builder).SllVX, isa.OpSrl: (*isa.Builder).SrlVX, isa.OpSra: (*isa.Builder).SraVX,
	isa.OpMv:  func(b *isa.Builder, vd, _ int, x uint32) { b.MvVX(vd, x) },
	isa.OpMul: (*isa.Builder).MulVX, isa.OpMacc: (*isa.Builder).MaccVX, isa.OpDiv: (*isa.Builder).DivVX,
	isa.OpMSeq: (*isa.Builder).MSeqVX, isa.OpMSlt: (*isa.Builder).MSltVX, isa.OpMSltU: (*isa.Builder).MSltUVX,
	isa.OpMSgt: (*isa.Builder).MSgtVX, isa.OpMSgtU: (*isa.Builder).MSgtUVX,
}

// edgeValues are the operands where saturation, division and signed
// compares change behaviour.
var edgeValues = []uint32{0, 1, 2, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0xFFFFFFFE, 31, 32}

func randValue(rng *rand.Rand) uint32 {
	if rng.Intn(3) == 0 {
		return edgeValues[rng.Intn(len(edgeValues))]
	}
	return rng.Uint32()
}

// The registers each case fills with random data: the mask v0, vd, vs1 and
// vs2, all distinct.
const vd, vs1, vs2 = 5, 9, 17

var seeded = []int{0, vd, vs1, vs2}

// TestDatapathMatchesBuilderPerOp runs every form uprog.Decode returns —
// each array-executed op × .vv/.vx × masked/unmasked, at full and partial
// vector length — on a fault-free Datapath and checks the destination
// against the builder's semantics, the tail past VL undisturbed and the
// source registers intact. .vx shifts cover amounts 0, 1, 7, 31 and one
// above 31; at n=4 and n=32 the nonzero vsra amounts leave a partial segment
// and so read the sign-fill row. The Datapath is shared across cases, so a
// form that reads a stale scratch register (a missing broadcast prologue)
// sees the previous case's data.
func TestDatapathMatchesBuilderPerOp(t *testing.T) {
	const hwvl = 8
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 4, 32} {
		dp := faults.NewDatapath(n, hwvl, 0)
		for _, ref := range opRefs {
			for _, kind := range []isa.OperandKind{isa.KindVV, isa.KindVX} {
				scalars := []uint32{rng.Uint32(), edgeValues[rng.Intn(len(edgeValues))]}
				switch {
				case kind == isa.KindVV:
					scalars = []uint32{0}
				case ref.op == isa.OpSll || ref.op == isa.OpSrl || ref.op == isa.OpSra:
					scalars = []uint32{0, 1, 7, 31, 35}
				}
				for _, masked := range []bool{false, true} {
					for _, vl := range []int{hwvl, hwvl - 3} {
						for _, x := range scalars {
							in := &isa.Instr{Op: ref.op, Kind: kind, Vd: vd, Vs1: vs1, Vs2: vs2,
								Scalar: x, Masked: masked || ref.op == isa.OpMerge, VL: vl}
							name := fmt.Sprintf("n=%d %s masked=%v vl=%d x=%#x", n, isa.Disassemble(in), masked, vl, x)
							regs := map[int][]uint32{}
							for _, r := range seeded {
								regs[r] = make([]uint32, hwvl)
								for i := range regs[r] {
									regs[r][i] = randValue(rng)
								}
							}
							want := wantFor(ref, in, regs)
							checkBuilder(t, name, in, regs, want)
							checkDatapath(t, name, dp, in, regs, want)
						}
					}
				}
			}
		}
	}
}

// wantFor computes the destination register after in: active elements below
// VL take the reference result, everything else keeps its old value.
func wantFor(ref opRef, in *isa.Instr, regs map[int][]uint32) []uint32 {
	old, a, b, mask := regs[in.Vd], regs[in.Vs1], regs[in.Vs2], regs[0]
	want := slices.Clone(old)
	for i := 0; i < in.VL; i++ {
		y := in.Scalar
		if in.Kind == isa.KindVV {
			y = b[i]
		}
		switch {
		case ref.op == isa.OpMerge:
			want[i] = y
			if mask[i]&1 == 1 {
				want[i] = a[i]
			}
		case in.Masked && mask[i]&1 == 0:
		case ref.op == isa.OpMv && in.Kind == isa.KindVX:
			want[i] = y
		case ref.op == isa.OpMv:
			want[i] = a[i]
		default:
			want[i] = ref.f(old[i], a[i], y)
		}
	}
	return want
}

// checkBuilder anchors the reference to the builder's intrinsic, where the
// builder has one for this form.
func checkBuilder(t *testing.T, name string, in *isa.Instr, regs map[int][]uint32, want []uint32) {
	t.Helper()
	vv, vx := builderVV[in.Op], builderVX[in.Op]
	if (in.Kind == isa.KindVV && vv == nil) || (in.Kind == isa.KindVX && vx == nil) {
		return
	}
	b := isa.NewBuilder(mem.NewFlat(1<<16), len(want), nil)
	for _, r := range seeded {
		copy(b.VReg(r), regs[r])
	}
	b.SetVL(in.VL)
	b.SetMasked(in.Masked)
	if in.Kind == isa.KindVV {
		vv(b, in.Vd, in.Vs1, in.Vs2)
	} else {
		vx(b, in.Vd, in.Vs1, in.Scalar)
	}
	if got := b.VReg(in.Vd); !slices.Equal(got, want) {
		t.Errorf("%s: builder %#x, reference %#x", name, got, want)
	}
}

// checkDatapath loads regs into the substrate, executes in and compares the
// returned and live destination, and the untouched sources, with want.
func checkDatapath(t *testing.T, name string, dp *faults.Datapath, in *isa.Instr, regs map[int][]uint32, want []uint32) {
	t.Helper()
	for _, r := range seeded {
		dp.Exec(&isa.Instr{Op: isa.OpLoad, Vd: r, VL: len(regs[r])}, regs[r])
	}
	if got := dp.Exec(in, want); !slices.Equal(got, want) {
		t.Errorf("%s: datapath returned %#x, want %#x", name, got, want)
	}
	if got := dp.Read(in.Vd); !slices.Equal(got, want) {
		t.Errorf("%s: live destination %#x, want %#x (tail past VL must be undisturbed)", name, got, want)
	}
	for _, r := range seeded {
		if got := dp.Read(r); r != in.Vd && !slices.Equal(got, regs[r]) {
			t.Errorf("%s: source v%d clobbered: %#x, was %#x", name, r, got, regs[r])
		}
	}
}
