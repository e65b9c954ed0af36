package isa

import (
	"testing"

	"repro/internal/mem"
)

type collector struct{ evs []Event }

// Emit records ev. Event.V is only valid during the call, so vector
// instructions are copied.
func (c *collector) Emit(ev Event) {
	if ev.V != nil {
		in := *ev.V
		ev.V = &in
	}
	c.evs = append(c.evs, ev)
}

func newB(t *testing.T, hwvl int) (*Builder, *collector) {
	t.Helper()
	c := &collector{}
	return NewBuilder(mem.NewFlat(1<<20), hwvl, c), c
}

func TestSetVLStripMining(t *testing.T) {
	b, _ := newB(t, 8)
	if got := b.SetVL(100); got != 8 {
		t.Fatalf("SetVL(100) = %d, want 8 (HWVL)", got)
	}
	if got := b.SetVL(3); got != 3 {
		t.Fatalf("SetVL(3) = %d, want 3", got)
	}
}

func TestArithAndTrace(t *testing.T) {
	b, c := newB(t, 4)
	b.SetVL(4)
	b.MvVX(1, 10)
	b.MvVX(2, 32)
	b.Add(3, 1, 2)
	for i := 0; i < 4; i++ {
		if b.VReg(3)[i] != 42 {
			t.Fatalf("elem %d = %d, want 42", i, b.VReg(3)[i])
		}
	}
	// Events: setvl + 2 moves + add.
	if len(c.evs) != 4 {
		t.Fatalf("trace has %d events, want 4", len(c.evs))
	}
	last := c.evs[3]
	if last.Kind != EvVector || last.V.Op != OpAdd || last.V.VL != 4 {
		t.Fatalf("last event = %+v", last)
	}
}

func TestMaskedExecution(t *testing.T) {
	b, _ := newB(t, 4)
	b.SetVL(4)
	// v0 mask = 0,1,0,1.
	for i := 0; i < 4; i++ {
		b.VReg(0)[i] = uint32(i % 2)
	}
	b.MvVX(1, 5)
	b.MvVX(2, 7)
	b.MvVX(3, 99)
	b.SetMasked(true)
	b.Add(3, 1, 2)
	b.SetMasked(false)
	for i := 0; i < 4; i++ {
		want := uint32(99)
		if i%2 == 1 {
			want = 12
		}
		if b.VReg(3)[i] != want {
			t.Fatalf("elem %d = %d, want %d", i, b.VReg(3)[i], want)
		}
	}
	if b.Mix().Predicated != 1 {
		t.Fatalf("predicated count = %d, want 1", b.Mix().Predicated)
	}
}

func TestMemoryOps(t *testing.T) {
	b, _ := newB(t, 4)
	base := b.Mem.AllocU32(16)
	for i := 0; i < 16; i++ {
		b.Mem.StoreU32(base+uint64(4*i), uint32(i*i))
	}
	b.SetVL(4)
	b.Load(1, base)
	if b.VReg(1)[3] != 9 {
		t.Fatalf("unit load elem 3 = %d", b.VReg(1)[3])
	}
	b.LoadStride(2, base, 8) // every other element
	if b.VReg(2)[3] != 36 {
		t.Fatalf("strided load elem 3 = %d", b.VReg(2)[3])
	}
	// Indexed: byte offsets 0,4,8,12 reversed.
	for i := 0; i < 4; i++ {
		b.VReg(3)[i] = uint32((3 - i) * 4)
	}
	b.LoadIdx(4, base, 3)
	if b.VReg(4)[0] != 9 || b.VReg(4)[3] != 0 {
		t.Fatalf("indexed load = %v", b.VReg(4)[:4])
	}
	// Store back doubled.
	b.Add(5, 1, 1)
	out := b.Mem.AllocU32(4)
	b.Store(5, out)
	if b.Mem.LoadU32(out+8) != 8 {
		t.Fatalf("store failed: %d", b.Mem.LoadU32(out+8))
	}
}

func TestReductionsAndSlides(t *testing.T) {
	b, _ := newB(t, 8)
	b.SetVL(8)
	b.VId(1)
	b.MvVX(2, 0)
	b.RedSum(3, 1, 2)
	if b.VReg(3)[0] != 28 {
		t.Fatalf("redsum = %d, want 28", b.VReg(3)[0])
	}
	b.Slide1Down(4, 1, 1000)
	if b.VReg(4)[0] != 1 || b.VReg(4)[7] != 1000 {
		t.Fatalf("slide1down = %v", b.VReg(4)[:8])
	}
	b.Slide1Up(5, 1, 2000)
	if b.VReg(5)[0] != 2000 || b.VReg(5)[7] != 6 {
		t.Fatalf("slide1up = %v", b.VReg(5)[:8])
	}
	// Gather reversal.
	for i := 0; i < 8; i++ {
		b.VReg(6)[i] = uint32(7 - i)
	}
	b.RGather(7, 1, 6)
	if b.VReg(7)[0] != 7 || b.VReg(7)[7] != 0 {
		t.Fatalf("rgather = %v", b.VReg(7)[:8])
	}
}

func TestMixCharacterization(t *testing.T) {
	b, _ := newB(t, 16)
	b.SetVL(16)
	b.MvVX(1, 3)
	b.Mul(2, 1, 1)
	base := b.Mem.AllocU32(16)
	b.Store(2, base)
	b.ScalarOps(10)
	b.ScalarLoad(base)
	m := b.Mix()
	if m.VectorInstrs != 4 { // setvl, mv, mul, store
		t.Fatalf("vector instrs = %d, want 4", m.VectorInstrs)
	}
	if m.ByClass[ClassIMul] != 1 || m.ByClass[ClassUS] != 1 || m.ByClass[ClassCtrl] != 1 {
		t.Fatalf("class counts wrong: %+v", m.ByClass)
	}
	if m.ScalarOps != 10 || m.ScalarLoads != 1 {
		t.Fatalf("scalar counts wrong: %+v", m)
	}
	// DOp = 10 scalar + 1 load + 3*16 vector element ops (setvl contributes
	// VL too in our accounting? SetVL adds no VectorOps).
	wantOps := uint64(10 + 1 + 3*16)
	if m.TotalOps() != wantOps {
		t.Fatalf("TotalOps = %d, want %d", m.TotalOps(), wantOps)
	}
	if m.VectorPct() <= 0 || m.VectorOpPct() < 0.7 {
		t.Fatalf("percentages implausible: VI%%=%.2f VO%%=%.2f", m.VectorPct(), m.VectorOpPct())
	}
}

func TestClassify(t *testing.T) {
	cases := map[Op]Class{
		OpAdd: ClassIALU, OpMul: ClassIMul, OpDiv: ClassIMul,
		OpRedSum: ClassXE, OpRGather: ClassXE,
		OpLoad: ClassUS, OpLoadStride: ClassST, OpLoadIdx: ClassIdx,
		OpSetVL: ClassCtrl, OpFence: ClassCtrl, OpMvXS: ClassCtrl,
	}
	for op, want := range cases {
		if got := Classify(op); got != want {
			t.Errorf("Classify(%v) = %v, want %v", op, got, want)
		}
	}
	if !IsMemory(OpStoreIdx) || IsMemory(OpAdd) {
		t.Error("IsMemory misclassifies")
	}
	if !IsStore(OpStore) || IsStore(OpLoad) {
		t.Error("IsStore misclassifies")
	}
}

// opSum is a Sink that reads each vector instruction during Emit and keeps
// nothing past it, as Sink requires.
type opSum struct{ sum int }

func (s *opSum) Emit(ev Event) {
	if ev.V != nil {
		s.sum += int(ev.V.Op) + ev.V.VL
	}
}

// TestVectorEmitAllocatesNothing pins the builder-owned Instr: streaming
// non-indexed vector instructions into a sink that does not retain them
// allocates nothing per instruction.
func TestVectorEmitAllocatesNothing(t *testing.T) {
	sink := &opSum{}
	b := NewBuilder(mem.NewFlat(1<<16), 8, sink)
	base := b.Mem.Alloc(1024, 64)
	allocs := testing.AllocsPerRun(100, func() {
		b.SetVL(8)
		b.Load(1, base)
		b.LoadStride(2, base, 8)
		b.Add(3, 1, 2)
		b.MulVX(3, 3, 5)
		b.SetMasked(true)
		b.Macc(3, 1, 2)
		b.SetMasked(false)
		b.RedSum(4, 3, 1)
		b.Store(3, base+512)
		b.StoreStride(4, base+768, 4)
		b.Fence()
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per run of 10 vector instructions, want 0", allocs)
	}
	if sink.sum == 0 {
		t.Fatal("sink saw no vector instructions")
	}
}
