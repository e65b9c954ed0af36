package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/probe"
	"repro/internal/workloads"
)

// intervalKernels returns the identity-matrix kernels: the paper's vvadd plus
// spmv, whose indexed loads and per-row reductions stress the memory system's
// temporal state (MSHR churn, gather traffic) far harder than a streaming
// kernel.
func intervalKernels(t *testing.T) []*workloads.Kernel {
	t.Helper()
	sp, err := workloads.ByName(workloads.Small(), "spmv")
	if err != nil {
		t.Fatal(err)
	}
	return []*workloads.Kernel{workloads.NewVVAdd(1 << 10), sp}
}

// TestIntervalRunsMatchPlain enforces the sampler's core guarantee on every
// simulated system × {vvadd, spmv}: interval sampling observes, it never
// perturbs. Cycles, breakdown, stall fractions, LLC stats, the final registry
// snapshot and the memory checksum must all be byte-identical with sampling
// on, and the recorded windows must tile the run exactly.
func TestIntervalRunsMatchPlain(t *testing.T) {
	for _, k := range intervalKernels(t) {
		for _, cfg := range AllSystems() {
			cfg, k := cfg, k
			t.Run(fmt.Sprintf("%s/%s", cfg.Name(), k.Name), func(t *testing.T) {
				t.Parallel()
				plain := RunTraced(cfg, k, nil)
				icfg := cfg
				icfg.Interval = 512
				sampled := RunTraced(icfg, k, nil)

				if sampled.Err != nil {
					t.Fatalf("sampled run failed validation: %v", sampled.Err)
				}
				if sampled.Cycles != plain.Cycles {
					t.Errorf("sampled cycles = %d, plain %d", sampled.Cycles, plain.Cycles)
				}
				if sampled.Breakdown != plain.Breakdown {
					t.Errorf("sampled breakdown = %v, plain %v", sampled.Breakdown, plain.Breakdown)
				}
				if sampled.VMUStall != plain.VMUStall {
					t.Errorf("sampled vmu stall = %v, plain %v", sampled.VMUStall, plain.VMUStall)
				}
				if sampled.Mix != plain.Mix {
					t.Errorf("sampled mix = %+v, plain %+v", sampled.Mix, plain.Mix)
				}
				if sampled.MemChecksum != plain.MemChecksum {
					t.Errorf("sampled checksum %#x != plain %#x", sampled.MemChecksum, plain.MemChecksum)
				}
				if !reflect.DeepEqual(sampled.Stats, plain.Stats) {
					t.Error("sampled final snapshot differs from plain")
				}
				if plain.Intervals != nil {
					t.Error("plain run (Interval=0) carries an interval series")
				}

				series := sampled.Intervals
				if series == nil || len(series.Samples) == 0 {
					t.Fatal("sampled run has no interval series")
				}
				if series.Window != 512 {
					t.Errorf("series window = %d, want 512", series.Window)
				}
				// Windows tile the run: first start 0, adjacent edges shared,
				// last end at the final cycle.
				prevEnd := int64(0)
				for i, sm := range series.Samples {
					if sm.Start != prevEnd {
						t.Errorf("sample %d starts at %d, want %d", i, sm.Start, prevEnd)
					}
					if sm.End < sm.Start {
						t.Errorf("sample %d spans [%d, %d] backwards", i, sm.Start, sm.End)
					}
					prevEnd = sm.End
				}
				if prevEnd != sampled.Cycles {
					t.Errorf("last window ends at %d, want the run's %d cycles", prevEnd, sampled.Cycles)
				}

				// Reconciliation per path: summing any counter's window deltas
				// reproduces its end-of-run snapshot value, and no counter path
				// escapes the series.
				sums := series.SumCounters()
				counters := 0
				for _, st := range sampled.Stats {
					if st.Kind != probe.KindCounter {
						continue
					}
					counters++
					if got := sums[st.Name]; got != st.Int {
						t.Errorf("window sum of %s = %d, snapshot %d", st.Name, got, st.Int)
					}
				}
				if len(sums) != counters {
					t.Errorf("series sums %d counter paths, snapshot has %d", len(sums), counters)
				}
			})
		}
	}
}

// TestIntervalWindowSizesAgree repeats the identity check on the EVE corner
// design points (n=4 transposed, n=32 direct) across very different window
// sizes: the window is an observation parameter, so every choice must
// reproduce the same simulated result and the same reconciled totals.
func TestIntervalWindowSizesAgree(t *testing.T) {
	for _, k := range intervalKernels(t) {
		for _, n := range []int{4, 32} {
			k, n := k, n
			t.Run(fmt.Sprintf("EVE-%d/%s", n, k.Name), func(t *testing.T) {
				t.Parallel()
				base := Run(Config{Kind: SysO3EVE, N: n}, k)
				var prevSums map[string]int64
				for _, window := range []int64{64, 4096} {
					res := Run(Config{Kind: SysO3EVE, N: n, Interval: window}, k)
					if res.Err != nil {
						t.Fatalf("window %d failed validation: %v", window, res.Err)
					}
					if res.Cycles != base.Cycles || res.Breakdown != base.Breakdown {
						t.Errorf("window %d: (cycles %d, breakdown %v) != unsampled (%d, %v)",
							window, res.Cycles, res.Breakdown, base.Cycles, base.Breakdown)
					}
					if !reflect.DeepEqual(res.Stats, base.Stats) {
						t.Errorf("window %d: final snapshot differs from unsampled", window)
					}
					sums := res.Intervals.SumCounters()
					if prevSums != nil && !reflect.DeepEqual(sums, prevSums) {
						t.Errorf("window %d reconciles to different totals than the previous window", window)
					}
					prevSums = sums
				}
			})
		}
	}
}

// TestIntervalReconfigTimeline pins the acceptance criterion: an EVE-8 run
// records the borrow and the return on the timeline with correct way counts —
// the engine borrows half of the 8 L2 ways at spawn and returns the same four
// at teardown.
func TestIntervalReconfigTimeline(t *testing.T) {
	res := Run(Config{Kind: SysO3EVE, N: 8, Interval: 2000}, workloads.NewVVAdd(1<<10))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	series := res.Intervals
	if series == nil {
		t.Fatal("no interval series")
	}
	var borrow, ret, spawn, teardown int
	for _, ev := range series.Reconfigs {
		if ev.Comp != "eve" {
			t.Errorf("reconfig event on component %q, want eve", ev.Comp)
		}
		switch ev.Event {
		case "spawn":
			spawn++
			// Spawning at cycle 0 partitions a cold L2: no lines to
			// invalidate or write back, so the paper's linear cost is 0 here.
			if ev.Cost != 0 {
				t.Errorf("spawn event carries cost %d, want 0 on a cold cache", ev.Cost)
			}
		case "borrow":
			borrow++
			if ev.Ways != 4 || ev.Owned != 4 {
				t.Errorf("borrow = %+v, want ways 4 owned 4 (half of 8 L2 ways)", ev)
			}
			if ev.Cycle != 0 {
				t.Errorf("borrow at cycle %d, want 0 (spawned before the kernel)", ev.Cycle)
			}
		case "return":
			ret++
			if ev.Ways != 4 || ev.Owned != 0 {
				t.Errorf("return = %+v, want ways 4 owned 0", ev)
			}
			if ev.Cycle != res.Cycles {
				t.Errorf("return at cycle %d, want the final cycle %d", ev.Cycle, res.Cycles)
			}
		case "teardown":
			teardown++
		default:
			t.Errorf("unknown reconfig event %q", ev.Event)
		}
	}
	if spawn != 1 || borrow != 1 || ret != 1 || teardown != 1 {
		t.Errorf("timeline has spawn=%d borrow=%d return=%d teardown=%d, want one of each",
			spawn, borrow, ret, teardown)
	}
}
