package eve

import "testing"

func TestSystemsSweep(t *testing.T) {
	ss := Systems()
	if len(ss) != 10 {
		t.Fatalf("Systems() = %d entries, want 10", len(ss))
	}
	if ss[0].Name() != "IO" || ss[4].Name() != "O3+EVE-1" {
		t.Fatalf("unexpected ordering: %s, %s", ss[0].Name(), ss[4].Name())
	}
	if !EVE(8).IsEVE() || O3DV.IsEVE() {
		t.Fatal("IsEVE misreports")
	}
}

func TestInvalidEVEFactorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EVE(3) should panic")
		}
	}()
	EVE(3)
}

func TestHardwareVL(t *testing.T) {
	want := map[int]int{1: 2048, 8: 1024, 32: 256}
	for n, vl := range want {
		if got := HardwareVL(n); got != vl {
			t.Errorf("HardwareVL(%d) = %d, want %d", n, got, vl)
		}
	}
}

func TestAreaAndCycleTime(t *testing.T) {
	if a := AreaOverhead(8); a < 0.116 || a > 0.118 {
		t.Errorf("AreaOverhead(8) = %.4f, want ≈ 0.117", a)
	}
	if CycleTimeNS(4) != 1.025 || CycleTimeNS(32) != 1.55 {
		t.Error("cycle times off")
	}
}

func TestFig2SweepShape(t *testing.T) {
	pts := Fig2Sweep()
	if len(pts) != 6 {
		t.Fatalf("%d points", len(pts))
	}
	best, bestT := 0, 0.0
	for _, p := range pts {
		if p.AddThroughputNorm > bestT {
			best, bestT = p.N, p.AddThroughputNorm
		}
	}
	if best != 4 {
		t.Errorf("throughput peak at PF=%d, want 4", best)
	}
}

func TestSimulateBenchmark(t *testing.T) {
	b, err := BenchmarkByName("vvadd")
	if err != nil {
		t.Fatal(err)
	}
	io, err := Simulate(IO, b)
	if err != nil {
		t.Fatal(err)
	}
	e8, err := Simulate(EVE(8), b)
	if err != nil {
		t.Fatal(err)
	}
	if sp := e8.Speedup(io); sp < 2 {
		t.Errorf("EVE-8 speedup on vvadd = %.2f; expected well above 2", sp)
	}
	if e8.Breakdown == nil || e8.Breakdown["busy"] == 0 {
		t.Error("EVE result missing breakdown")
	}
	if io.Breakdown != nil {
		t.Error("scalar result should have no breakdown")
	}
}

func TestBenchmarkRegistry(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 10 {
		t.Fatalf("%d benchmarks, want 10", len(bs))
	}
	geo := 0
	for _, b := range bs {
		if b.InGeomean() {
			geo++
		}
	}
	if geo != 5 {
		t.Fatalf("%d kernels in geomean set, want 5", geo)
	}
	if _, err := BenchmarkByName("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

// TestMachineCustomProgram runs a SAXPY-style custom program on EVE-8 and
// validates results, timing and observability plumbing end to end through
// the public API.
func TestMachineCustomProgram(t *testing.T) {
	const n = 5000
	m := NewMachine(EVE(8).WithIntervals(1000), 1<<22)
	x := m.AllocWords(n)
	y := m.AllocWords(n)
	for i := 0; i < n; i++ {
		m.WriteWord(x+uint64(4*i), uint32(i))
		m.WriteWord(y+uint64(4*i), uint32(2*i))
	}
	const a = 3
	for i := 0; i < n; {
		vl := m.SetVL(n - i)
		off := uint64(4 * i)
		m.Load(1, x+off)
		m.Load(2, y+off)
		m.MaccVX(2, 1, a) // y += a*x
		m.Store(2, y+off)
		m.ScalarOps(5)
		i += vl
	}
	m.Fence()
	if got := m.ScalarLoad(y); got != 0 {
		t.Fatalf("scalar readback of y[0] = %d, want 0", got)
	}
	res := m.Finish()
	for i := 0; i < n; i++ {
		want := uint32(2*i + a*i)
		if got := m.ReadWord(y + uint64(4*i)); got != want {
			t.Fatalf("y[%d] = %d, want %d", i, got, want)
		}
	}
	if res.Cycles <= 0 || res.Breakdown["busy"] == 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.SpawnCost != 0 {
		t.Errorf("cold-cache spawn should be free, got %d", res.SpawnCost)
	}
	if res.Intervals == nil {
		t.Error("WithIntervals machine returned no interval series")
	}
	if len(res.Snapshot) == 0 || len(res.Stats) == 0 {
		t.Fatal("machine result carries no stats snapshot")
	}
	if d := res.Derived(); d.L1D.Accesses == 0 {
		t.Errorf("derived L1D accesses = 0 after a scalar load: %+v", d.L1D)
	}
}

func TestMachineScalarOnlyRejectsVector(t *testing.T) {
	m := NewMachine(O3, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("vector op on scalar machine should panic")
		}
	}()
	m.SetVL(4)
}

func TestMachineUseAfterFinishPanics(t *testing.T) {
	m := NewMachine(EVE(4), 0)
	m.SetVL(4)
	m.Finish()
	defer func() {
		if recover() == nil {
			t.Fatal("use after Finish should panic")
		}
	}()
	m.MvVX(1, 1)
}
