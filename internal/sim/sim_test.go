package sim

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/workloads"
)

func runOne(t *testing.T, cfg Config, k *workloads.Kernel) Result {
	t.Helper()
	r := Run(cfg, k)
	if r.Err != nil {
		t.Fatalf("%s on %s: output check failed: %v", k.Name, cfg.Name(), r.Err)
	}
	if r.Cycles <= 0 {
		t.Fatalf("%s on %s: nonpositive cycle count", k.Name, cfg.Name())
	}
	return r
}

// TestVVAddSpeedupOrdering checks the qualitative Fig 6 story on the
// streaming kernel: every vector system beats IO, and O3 beats IO.
func TestVVAddSpeedupOrdering(t *testing.T) {
	k := workloads.NewVVAdd(1 << 14)
	io := runOne(t, Config{Kind: SysIO}, k)
	o3 := runOne(t, Config{Kind: SysO3}, k)
	iv := runOne(t, Config{Kind: SysO3IV}, k)
	dv := runOne(t, Config{Kind: SysO3DV}, k)
	e8 := runOne(t, Config{Kind: SysO3EVE, N: 8}, k)

	if o3.Cycles >= io.Cycles {
		t.Errorf("O3 (%d) not faster than IO (%d)", o3.Cycles, io.Cycles)
	}
	if iv.Cycles >= o3.Cycles {
		t.Errorf("O3+IV (%d) not faster than O3 (%d)", iv.Cycles, o3.Cycles)
	}
	if dv.Cycles >= iv.Cycles {
		t.Errorf("O3+DV (%d) not faster than O3+IV (%d)", dv.Cycles, iv.Cycles)
	}
	if e8.Cycles >= iv.Cycles {
		t.Errorf("EVE-8 (%d) not faster than O3+IV (%d)", e8.Cycles, iv.Cycles)
	}
}

// TestMMultComputeBoundShape: on the multiply-bound kernel, EVE-1's
// bit-serial multiply should be its weak point — higher factors win.
func TestMMultComputeBoundShape(t *testing.T) {
	k := workloads.NewMMult(32)
	e1 := runOne(t, Config{Kind: SysO3EVE, N: 1}, k)
	e8 := runOne(t, Config{Kind: SysO3EVE, N: 8}, k)
	if e8.Cycles >= e1.Cycles {
		t.Errorf("EVE-8 (%d) should beat EVE-1 (%d) on mmult", e8.Cycles, e1.Cycles)
	}
}

// TestEVEBreakdownConsistency: breakdown sums to total engine time, busy is
// nonzero, and memory-bound vvadd shows memory stalls.
func TestEVEBreakdownConsistency(t *testing.T) {
	k := workloads.NewVVAdd(1 << 14)
	r := runOne(t, Config{Kind: SysO3EVE, N: 4}, k)
	b := r.Breakdown
	if b.Total() <= 0 {
		t.Fatal("empty breakdown")
	}
	if b[0] == 0 { // Busy
		t.Error("no busy cycles")
	}
}

// TestBackpropMSHRPressure: the giant-stride kernel must show VMU
// cache-induced stalls on EVE (Fig 8's backprop-int shape).
func TestBackpropMSHRPressure(t *testing.T) {
	// The weight matrix must exceed the LLC for the paper's pathology:
	// every giant-stride element request misses, saturating the 32 MSHRs.
	k := workloads.NewBackprop(65536, 16)
	r := runOne(t, Config{Kind: SysO3EVE, N: 1}, k)
	if r.VMUStall <= 0.2 {
		t.Errorf("backprop VMU stall fraction = %.3f; expected substantial MSHR pressure", r.VMUStall)
	}
}

// TestAllSystemsAllKernels is the integration smoke test: everything runs
// and validates everywhere.
func TestAllSystemsAllKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	for _, k := range workloads.Small() {
		for _, s := range AllSystems() {
			r := Run(s, k)
			if r.Err != nil {
				t.Errorf("%s on %s: %v", k.Name, s.Name(), r.Err)
			}
			if r.Cycles <= 0 {
				t.Errorf("%s on %s: cycles = %d", k.Name, s.Name(), r.Cycles)
			}
		}
	}
}

func TestSystemNames(t *testing.T) {
	if (Config{Kind: SysO3EVE, N: 8}).Name() != "O3+EVE-8" {
		t.Fatal("bad EVE name")
	}
	if len(AllSystems()) != 10 {
		t.Fatalf("AllSystems = %d entries, want 10", len(AllSystems()))
	}
}

// TestEnergyTracksUtilization pins the §VI-B energy model: sub-balanced
// factors burn proportionally more row accesses (column under-utilization),
// and the balanced-and-beyond regime is comparable, per the paper's claim.
func TestEnergyTracksUtilization(t *testing.T) {
	k := workloads.NewMMult(8, 8, 256)
	e1 := runOne(t, Config{Kind: SysO3EVE, N: 1}, k)
	e2 := runOne(t, Config{Kind: SysO3EVE, N: 2}, k)
	e4 := runOne(t, Config{Kind: SysO3EVE, N: 4}, k)
	e8 := runOne(t, Config{Kind: SysO3EVE, N: 8}, k)
	if e1.EnergyEq <= 0 {
		t.Fatal("no energy recorded")
	}
	r2 := e2.EnergyEq / e1.EnergyEq
	r4 := e4.EnergyEq / e1.EnergyEq
	r8 := e8.EnergyEq / e1.EnergyEq
	if r2 < 0.4 || r2 > 0.62 {
		t.Errorf("EVE-2 energy ratio = %.2f, want ≈0.5 (half the row accesses)", r2)
	}
	if r4 < 0.2 || r4 > 0.35 {
		t.Errorf("EVE-4 energy ratio = %.2f, want ≈0.25", r4)
	}
	// Beyond balance, energy per work is comparable (flat).
	if r8 < r4*0.7 || r8 > r4*1.4 {
		t.Errorf("EVE-8 energy ratio %.2f should be comparable to EVE-4's %.2f", r8, r4)
	}
}

// TestTraceEncodesRoundTrip runs a kernel and checks every emitted vector
// instruction survives binary Encode → Decode — the assembler-level
// integration check over a real dynamic trace.
func TestTraceEncodesRoundTrip(t *testing.T) {
	enc := &encodeChecker{t: t}
	b := isaNewBuilderForTest(enc)
	k := workloads.NewSW(48)
	if err := k.Run(b, true)(); err != nil {
		t.Fatal(err)
	}
	if enc.count == 0 {
		t.Fatal("no vector instructions seen")
	}
}

// TestRunEVECustomConfig covers the ablation knobs on the one entry point:
// an engine configuration off the paper's defaults runs and validates, and
// a tripped watchdog on the same system comes back as a *SimError.
func TestRunEVECustomConfig(t *testing.T) {
	cfg := Config{Kind: SysO3EVE, N: 4, DTUs: 2}
	r := Run(cfg, workloads.NewVVAdd(1<<10))
	if r.Err != nil || r.Cycles <= 0 {
		t.Fatalf("Run: %+v", r)
	}
	if r.EnergyEq <= 0 {
		t.Fatal("custom run recorded no energy")
	}

	cfg.MaxUProgCycles = 1
	r = Run(cfg, workloads.NewVVAdd(1<<10))
	var se *SimError
	if !errors.As(r.Err, &se) || se.Subsystem != "uprog" {
		t.Fatalf("watchdog on a custom EVE config: err = %v, want a uprog *SimError", r.Err)
	}
}

// TestMatrixShape covers the matrix helper.
func TestMatrixShape(t *testing.T) {
	systems := []Config{{Kind: SysIO}, {Kind: SysO3EVE, N: 8}}
	res := Matrix(systems, []*workloads.Kernel{workloads.NewVVAdd(1 << 10)})
	if len(res) != 1 || len(res[0]) != 2 {
		t.Fatal("matrix shape wrong")
	}
	if res[0][1].Breakdown.Total() == 0 {
		t.Fatal("EVE cell missing breakdown")
	}
}

// TestMemParamsTableIIIEquivalent: a Config whose MemParams spell out the
// Table III values explicitly must simulate bit-identically to the nil-Mem
// default — the override path adds parameterization, never behaviour.
func TestMemParamsTableIIIEquivalent(t *testing.T) {
	k := workloads.NewBackprop(128, 32)
	for _, cfg := range []Config{{Kind: SysO3}, {Kind: SysO3EVE, N: 8}} {
		want := Run(cfg, k)
		cfg.Mem = &MemParams{
			L1D:               mem.L1DConfig,
			L2:                mem.L2Config,
			LLC:               mem.LLCConfig,
			DRAMLatency:       mem.DefaultDRAM().Latency,
			DRAMCyclesPerLine: mem.DefaultDRAM().CyclesPerLine,
		}
		got := Run(cfg, k)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: explicit Table III MemParams diverge from defaults:\n got  %+v\n want %+v",
				cfg.Name(), got, want)
		}
	}
}

// TestMemParamsMoveResults: shrinking the cache hierarchy and slowing DRAM
// must make a memory-bound kernel measurably slower while the checker still
// validates — the exploration axes really reach the timing model. Jacobi's
// 256 KiB grid re-swept four times fits the Table III L2 but thrashes a
// 32 KiB L2 / 64 KiB LLC.
func TestMemParamsMoveResults(t *testing.T) {
	k := workloads.NewJacobi2D(256, 4)
	base := Run(Config{Kind: SysO3}, k)
	if base.Err != nil {
		t.Fatalf("baseline: %v", base.Err)
	}
	tinyL2 := mem.L2Config
	tinyL2.SizeBytes = 32 << 10
	tinyLLC := mem.LLCConfig
	tinyLLC.SizeBytes = 64 << 10
	slow := Run(Config{Kind: SysO3, Mem: &MemParams{L2: tinyL2, LLC: tinyLLC, DRAMLatency: 200}}, k)
	if slow.Err != nil {
		t.Fatalf("overridden hierarchy failed validation: %v", slow.Err)
	}
	if slow.Cycles <= base.Cycles {
		t.Errorf("64 KiB LLC + 200-cycle DRAM should be slower: %d vs %d cycles", slow.Cycles, base.Cycles)
	}
	baseMiss, _ := base.Stats.Int("llc.misses")
	slowMiss, _ := slow.Stats.Int("llc.misses")
	if slowMiss <= baseMiss {
		t.Errorf("smaller LLC should miss more: %d vs %d", slowMiss, baseMiss)
	}
}

// TestMemParamsEVEWaySplit: the L2 way-split must follow the overridden
// associativity (the SpawnEVE fix), so an EVE system with a 4-way L2 still
// validates and partitions its own geometry rather than Table III's.
func TestMemParamsEVEWaySplit(t *testing.T) {
	l2 := mem.L2Config
	l2.Ways = 4
	cfg := Config{Kind: SysO3EVE, N: 8, Mem: &MemParams{L2: l2}}
	r := Run(cfg, workloads.NewVVAdd(1<<10))
	if r.Err != nil || r.Cycles <= 0 {
		t.Fatalf("EVE on a 4-way L2: %+v", r)
	}
	if r.Breakdown.Total() == 0 {
		t.Fatal("EVE cell missing breakdown under overridden geometry")
	}
}

// TestRunAllocatesInProportionToWork guards the growing flat store: a
// Small() vvadd run touches well under 1 MB of simulated memory, so it must
// not allocate anywhere near the 64 MiB capacity every run is given.
func TestRunAllocatesInProportionToWork(t *testing.T) {
	k, err := workloads.ByName(workloads.Small(), "vvadd")
	if err != nil {
		t.Fatal(err)
	}
	runOne(t, Config{Kind: SysO3}, k) // warm any one-time initialisation
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runOne(t, Config{Kind: SysO3}, k)
	runtime.ReadMemStats(&after)
	const limit = 8 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("one Small() vvadd run on O3 allocated %.1f MB, want under %d MB",
			float64(got)/(1<<20), limit>>20)
	}
}

// TestVectorTraceDoesNotAllocatePerInstr guards the builder-owned vector
// instruction: a Small() vvadd run on O3+IV streams over a thousand
// non-indexed vector instructions through the sink to the IV engine, and
// must allocate far fewer heap objects than it emits instructions.
func TestVectorTraceDoesNotAllocatePerInstr(t *testing.T) {
	k, err := workloads.ByName(workloads.Small(), "vvadd")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Kind: SysO3IV}
	runOne(t, cfg, k) // warm any one-time initialisation
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := runOne(t, cfg, k)
	runtime.ReadMemStats(&after)
	allocs, instrs := after.Mallocs-before.Mallocs, r.Mix.VectorInstrs
	t.Logf("%d vector instructions, %d heap allocations", instrs, allocs)
	if instrs < 1000 {
		t.Fatalf("vvadd on %s emitted %d vector instructions; the pin needs a long trace", cfg.Name(), instrs)
	}
	if allocs >= instrs/4 {
		t.Fatalf("vvadd on %s: %d heap allocations for %d vector instructions, want under %d",
			cfg.Name(), allocs, instrs, instrs/4)
	}
}
