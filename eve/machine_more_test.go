package eve

import (
	"reflect"
	"testing"

	ieve "repro/internal/eve"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestMachineFullSurface drives every facade intrinsic once on a DV machine
// (fast) and verifies the functional results flow through.
func TestMachineFullSurface(t *testing.T) {
	m := NewMachine(O3DV, 0)
	n := m.SetVL(8)
	if n != 8 {
		t.Fatalf("SetVL granted %d", n)
	}
	base := m.AllocWords(64)
	for i := 0; i < 16; i++ {
		m.WriteWord(base+uint64(4*i), uint32(i+1))
	}
	m.Load(1, base)
	m.LoadStride(2, base, 8)
	m.VId(3)
	m.SllVX(3, 3, 2)
	m.LoadIdx(4, base, 3)
	m.Add(5, 1, 2)
	m.Sub(5, 5, 1)
	m.And(5, 5, 5)
	m.Or(5, 5, 5)
	m.Xor(6, 5, 5)
	m.Mul(6, 1, 2)
	m.MulH(6, 1, 2)
	m.Macc(6, 1, 2)
	m.Div(6, 2, 1)
	m.Min(7, 1, 2)
	m.Max(7, 1, 2)
	m.Sll(7, 1, 3)
	m.Srl(7, 1, 3)
	m.AddVX(8, 1, 5)
	m.SubVX(8, 8, 1)
	m.RSubVX(8, 8, 100)
	m.AndVX(8, 8, 0xFF)
	m.OrVX(8, 8, 1)
	m.XorVX(8, 8, 2)
	m.MulVX(8, 1, 3)
	m.MaccVX(8, 1, 2)
	m.MaxVX(8, 8, 3)
	m.SrlVX(8, 8, 1)
	m.SraVX(8, 8, 1)
	m.MSeq(0, 1, 2)
	m.MSne(0, 1, 2)
	m.MSlt(0, 1, 2)
	m.MSltU(0, 1, 2)
	m.MSltVX(0, 1, 3)
	m.MSgtVX(0, 1, 3)
	m.MSltUVX(0, 1, 3)
	m.MSgtUVX(0, 1, 3)
	m.MSeqVX(0, 1, 3)
	m.Merge(9, 1, 2)
	m.SetMasked(true)
	m.Add(9, 1, 2)
	m.SetMasked(false)
	m.Mv(10, 9)
	m.MvVX(11, 5)
	m.MvSX(11, 9)
	_ = m.MvXS(11)
	m.RedSum(12, 1, 11)
	m.RedMax(12, 1, 11)
	m.RedMin(12, 1, 11)
	m.Slide1Up(13, 1, 0)
	m.Slide1Down(13, 1, 0)
	m.RGather(14, 1, 3)
	m.ScalarOps(3)
	m.ScalarMuls(1)
	_ = m.ScalarLoad(base)
	m.ScalarStore(base, 1)
	m.Store(5, base)
	m.StoreStride(5, base, 8)
	m.StoreIdx(5, base, 3)
	m.Fence()
	if m.System() != O3DV || m.HWVL() != 64 {
		t.Fatal("machine metadata wrong")
	}
	res := m.Finish()
	if res.Cycles <= 0 || res.DynamicInstrs == 0 {
		t.Fatalf("implausible result %+v", res)
	}
	if len(m.VReg(5)) != 64 {
		t.Fatal("VReg length wrong")
	}
}

func TestMachineIVAndScalar(t *testing.T) {
	// IV machine end-to-end.
	m := NewMachine(O3IV, 0)
	base := m.AllocWords(16)
	m.SetVL(16)
	m.Load(1, base)
	m.AddVX(1, 1, 1)
	m.Store(1, base)
	if r := m.Finish(); r.Cycles <= 0 {
		t.Fatal("IV machine produced no time")
	}
	// Scalar-only machine accepts scalar traffic.
	s := NewMachine(IO, 0)
	a := s.AllocWords(4)
	s.ScalarStore(a, 9)
	if s.ScalarLoad(a) != 9 {
		t.Fatal("scalar round trip failed")
	}
	s.ScalarOps(10)
	s.ScalarMuls(2)
	if r := s.Finish(); r.Cycles <= 0 {
		t.Fatal("scalar machine produced no time")
	}
}

// agreementProg is the intrinsic surface the agreement program uses; both
// *Machine and *isa.Builder provide it.
type agreementProg interface {
	ScalarOps(n int)
	ScalarMuls(n int)
	ScalarLoad(addr uint64) uint32
	ScalarStore(addr uint64, v uint32)
	SetVL(avl int) int
	Load(vd int, addr uint64)
	LoadStride(vd int, addr uint64, stride int64)
	MaccVX(vd, vs1 int, x uint32)
	Store(vs int, addr uint64)
	MvVX(vd int, x uint32)
	RedSum(vd, vs2, vs1 int)
	MvXS(vs int) uint32
	Fence()
}

// warmBytes is the scalar warm-up footprint: larger than half the 512 KB
// L2, so lines sit in the ways an EVE spawn releases.
const warmBytes = 384 << 10

// runAgreementProg mixes scalar and vector code: a scalar warm-up over w
// that leaves lines resident in the L2 before any vector instruction (so
// EVE's spawn pays a real invalidation cost), a strip-mined SAXPY with a
// strided load and a blocking reduction readback, and a scalar epilogue.
// Scalar-only systems run the same computation in scalar code.
func runAgreementProg(p agreementProg, w, x, y uint64, n int, vector bool) {
	for a := w; a < w+warmBytes; a += 64 {
		p.ScalarLoad(a)
		p.ScalarOps(3)
	}
	p.ScalarMuls(8)
	if vector {
		for i := 0; i < n; {
			vl := p.SetVL(n - i)
			off := uint64(4 * i)
			p.Load(1, x+off)
			p.Load(2, y+off)
			p.MaccVX(2, 1, 3)
			p.Store(2, y+off)
			p.LoadStride(3, x, 8)
			p.MvVX(4, 0)
			p.RedSum(4, 3, 4)
			p.ScalarStore(y+off, p.MvXS(4))
			p.ScalarOps(5)
			i += vl
		}
		p.Fence()
	} else {
		for i := 0; i < n; i++ {
			a := uint64(4 * i)
			p.ScalarStore(y+a, p.ScalarLoad(y+a)+3*p.ScalarLoad(x+a))
			p.ScalarOps(4)
			p.ScalarMuls(1)
		}
	}
	for i := 0; i < n; i += 16 {
		p.ScalarStore(x+uint64(4*i), p.ScalarLoad(y+uint64(4*i)))
	}
}

// TestMachineAgreesWithRun runs one mixed scalar/vector program through
// both entry points — a Machine, and the same program wrapped as a kernel
// through sim.Run — on every system, and requires the same simulation:
// cycles, Fig 7 breakdown, spawn cost, instruction mix and the full stats
// snapshot.
func TestMachineAgreesWithRun(t *testing.T) {
	const n = 3000
	setup := func(alloc func(int) uint64, store func(uint64, uint32)) (w, x, y uint64) {
		w, x, y = alloc(warmBytes/4), alloc(n), alloc(n)
		for i := 0; i < n; i++ {
			store(x+uint64(4*i), uint32(i))
			store(y+uint64(4*i), uint32(7*i))
		}
		return w, x, y
	}
	k := &workloads.Kernel{Name: "mixed", Run: func(b *isa.Builder, vector bool) workloads.CheckFunc {
		w, x, y := setup(b.Mem.AllocU32, b.Mem.StoreU32)
		runAgreementProg(b, w, x, y, n, vector)
		return func() error { return nil }
	}}
	for _, s := range Systems() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			want := sim.Run(s.config(), k)
			if want.Err != nil {
				t.Fatal(want.Err)
			}
			m := NewMachine(s, 1<<22)
			w, x, y := setup(m.AllocWords, m.WriteWord)
			runAgreementProg(m, w, x, y, n, s.kind != sim.SysIO && s.kind != sim.SysO3)
			got := m.Finish()

			if got.Cycles != want.Cycles {
				t.Errorf("cycles: Machine %d, Run %d", got.Cycles, want.Cycles)
			}
			for c := ieve.Category(0); c < ieve.NumCategories; c++ {
				if got.Breakdown[c.String()] != want.Breakdown[c] {
					t.Errorf("breakdown %s: Machine %d, Run %d", c, got.Breakdown[c.String()], want.Breakdown[c])
				}
			}
			if got.SpawnCost != want.SpawnCost || (s.IsEVE() && want.SpawnCost == 0) {
				t.Errorf("spawn cost: Machine %d, Run %d; want equal and, on EVE, non-zero",
					got.SpawnCost, want.SpawnCost)
			}
			if got.DynamicInstrs != want.Mix.DynamicInstrs() || got.TotalOps != want.Mix.TotalOps() {
				t.Errorf("mix: Machine %d/%d, Run %d/%d", got.DynamicInstrs, got.TotalOps,
					want.Mix.DynamicInstrs(), want.Mix.TotalOps())
			}
			if len(want.Stats) == 0 || !reflect.DeepEqual(got.Snapshot, want.Stats) {
				t.Errorf("stats snapshots differ:\nMachine %v\nRun     %v", got.Snapshot, want.Stats)
			}
		})
	}
}
