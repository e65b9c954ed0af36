package sim

import (
	"reflect"
	"testing"

	"repro/internal/probe"
	"repro/internal/workloads"
)

// TestTracedRunsMatchUntraced enforces the probe layer's core guarantee:
// probes observe, they never perturb. For every simulated system, a run with
// a tracer attached (and one with RunTraced's nil tracer) must produce the
// identical timing result as plain Run.
func TestTracedRunsMatchUntraced(t *testing.T) {
	k := workloads.NewVVAdd(1 << 10)
	for _, cfg := range AllSystems() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			t.Parallel()
			plain := Run(cfg, k)
			nilTraced := RunTraced(cfg, k, nil)
			col := &probe.Collect{}
			traced := RunTraced(cfg, k, col)

			for _, tc := range []struct {
				label string
				got   Result
			}{{"RunTraced(nil)", nilTraced}, {"RunTraced(collect)", traced}} {
				if tc.got.Err != nil {
					t.Fatalf("%s failed validation: %v", tc.label, tc.got.Err)
				}
				if tc.got.Cycles != plain.Cycles {
					t.Errorf("%s cycles = %d, untraced %d", tc.label, tc.got.Cycles, plain.Cycles)
				}
				if tc.got.Breakdown != plain.Breakdown {
					t.Errorf("%s breakdown = %v, untraced %v", tc.label, tc.got.Breakdown, plain.Breakdown)
				}
				if tc.got.VMUStall != plain.VMUStall {
					t.Errorf("%s vmu stall = %v, untraced %v", tc.label, tc.got.VMUStall, plain.VMUStall)
				}
				if tc.got.Mix != plain.Mix {
					t.Errorf("%s mix = %+v, untraced %+v", tc.label, tc.got.Mix, plain.Mix)
				}
				if !reflect.DeepEqual(tc.got.Stats, plain.Stats) {
					t.Errorf("%s stats snapshot differs from untraced", tc.label)
				}
			}
			if nilTraced.MemChecksum == 0 {
				t.Error("RunTraced(nil) left the memory checksum zero")
			}
			if traced.MemChecksum != nilTraced.MemChecksum {
				t.Errorf("traced checksum %#x != nil-traced %#x", traced.MemChecksum, nilTraced.MemChecksum)
			}
			if plain.MemChecksum != 0 {
				t.Error("plain Run computed a checksum; it should skip the hash")
			}
			if len(traced.Stats) == 0 {
				t.Fatal("traced run has an empty stats snapshot")
			}
			if v, ok := traced.Stats.Int("core.insts"); !ok || v <= 0 {
				t.Errorf("core.insts = %d, %v; want positive", v, ok)
			}
			if cfg.Kind == SysO3EVE {
				if len(col.Events) == 0 {
					t.Fatal("EVE traced run collected no events")
				}
				var commits int
				for _, ev := range col.Events {
					if ev.Comp == "eve.vsu" && ev.Kind == probe.KInstr {
						commits++
					}
				}
				if commits == 0 {
					t.Error("no eve.vsu instruction-commit events collected")
				}
				if v, ok := traced.Stats.Int("eve.instrs"); !ok || v != int64(commits) {
					t.Errorf("eve.instrs = %d, %v; want %d (one per collected commit)", v, ok, commits)
				}
			}
		})
	}
}

// TestTracedDeterminismAcrossKernels repeats the traced-vs-untraced check on
// a control-heavy kernel for the two EVE corner design points (n=4 transposed
// layout, n=32 direct layout) — the ISSUE's named regression matrix.
func TestTracedDeterminismAcrossKernels(t *testing.T) {
	k, err := workloads.ByName(workloads.Small(), "pathfinder")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{4, 32} {
		cfg := Config{Kind: SysO3EVE, N: n}
		t.Run(cfg.Name(), func(t *testing.T) {
			plain := Run(cfg, k)
			traced := RunTraced(cfg, k, &probe.Collect{})
			if traced.Err != nil {
				t.Fatalf("traced run failed validation: %v", traced.Err)
			}
			if traced.Cycles != plain.Cycles || traced.Breakdown != plain.Breakdown {
				t.Errorf("traced (cycles %d, breakdown %v) != untraced (cycles %d, breakdown %v)",
					traced.Cycles, traced.Breakdown, plain.Cycles, plain.Breakdown)
			}
			again := RunTraced(cfg, k, &probe.Collect{})
			if again.MemChecksum != traced.MemChecksum {
				t.Errorf("checksum not reproducible: %#x vs %#x", again.MemChecksum, traced.MemChecksum)
			}
		})
	}
}

// TestRunEVEHasStats covers the registry wiring of an ablation config.
func TestRunEVEHasStats(t *testing.T) {
	res := Run(Config{Kind: SysO3EVE, N: 4, DTUs: 2}, workloads.NewVVAdd(1<<10))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if v, ok := res.Stats.Int("eve.instrs"); !ok || v <= 0 {
		t.Errorf("eve.instrs = %d, %v; want positive", v, ok)
	}
	if _, ok := res.Stats.Get("llc.accesses"); !ok {
		t.Error("llc.accesses missing from custom-config stats")
	}
}
