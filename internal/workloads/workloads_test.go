package workloads

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// TestKernelsFunctionalAllVLs runs every kernel's scalar and vectorized
// implementations at several hardware vector lengths (the IV's 4, DV's 64,
// EVE's long VLs) and validates the outputs against the Go references —
// proving strip-mining is VL-agnostic.
func TestKernelsFunctionalAllVLs(t *testing.T) {
	for _, k := range Small() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			// Scalar implementation.
			b := isa.NewBuilder(mem.NewFlat(64<<20), 4, nil)
			check := k.Run(b, false)
			if err := check(); err != nil {
				t.Fatalf("scalar: %v", err)
			}
			if b.Mix().DynamicInstrs() == 0 {
				t.Fatal("scalar run emitted no instructions")
			}
			// Vector implementations at representative HWVLs.
			for _, hwvl := range []int{4, 64, 512, 2048} {
				b := isa.NewBuilder(mem.NewFlat(64<<20), hwvl, nil)
				check := k.Run(b, true)
				if err := check(); err != nil {
					t.Fatalf("vector HWVL=%d: %v", hwvl, err)
				}
				m := b.Mix()
				if m.VectorInstrs == 0 {
					t.Fatalf("HWVL=%d: no vector instructions emitted", hwvl)
				}
				if m.VectorOpPct() < 0.5 {
					t.Errorf("HWVL=%d: vector op share only %.2f; kernels should be dominated by vector work",
						hwvl, m.VectorOpPct())
				}
			}
		})
	}
}

// TestLongerVLMeansFewerInstructions pins the strip-mining contract: the
// dynamic vector instruction count shrinks as HWVL grows.
func TestLongerVLMeansFewerInstructions(t *testing.T) {
	for _, k := range Small() {
		run := func(hwvl int) uint64 {
			b := isa.NewBuilder(mem.NewFlat(64<<20), hwvl, nil)
			k.Run(b, true)
			return b.Mix().VectorInstrs
		}
		short, long := run(4), run(1024)
		if long >= short {
			t.Errorf("%s: VL=1024 used %d vector instrs, VL=4 used %d; expected fewer",
				k.Name, long, short)
		}
	}
}

// TestMixReflectsKernelCharacter spot-checks Table IV's structural traits.
func TestMixReflectsKernelCharacter(t *testing.T) {
	mixOf := func(k *Kernel) isa.Mix {
		b := isa.NewBuilder(mem.NewFlat(64<<20), 64, nil)
		k.Run(b, true)
		return b.Mix()
	}
	ks := Small()

	mm, _ := ByName(ks, "mmult")
	if m := mixOf(mm); m.ByClass[isa.ClassIMul] == 0 {
		t.Error("mmult must be multiply-heavy")
	}
	bp, _ := ByName(ks, "backprop")
	if m := mixOf(bp); m.ByClass[isa.ClassST] == 0 {
		t.Error("backprop must issue constant-stride accesses")
	}
	km, _ := ByName(ks, "k-means")
	if m := mixOf(km); m.ByClass[isa.ClassST] == 0 || m.Predicated == 0 {
		t.Error("k-means must use strided loads and predication")
	}
	pf, _ := ByName(ks, "pathfinder")
	if m := mixOf(pf); m.Predicated == 0 {
		t.Error("pathfinder must use predication")
	}
	jc, _ := ByName(ks, "jacobi-2d")
	if m := mixOf(jc); m.ByClass[isa.ClassXE] == 0 {
		t.Error("jacobi-2d must use cross-element reductions (convergence term)")
	}
	sw, _ := ByName(ks, "sw")
	if m := mixOf(sw); m.ByClass[isa.ClassXE] == 0 || m.ByClass[isa.ClassST] == 0 {
		t.Error("sw must use reductions and reversed strided loads")
	}
	vv, _ := ByName(ks, "vvadd")
	if m := mixOf(vv); m.ByClass[isa.ClassUS] == 0 || m.VectorOpPct() < 0.9 {
		t.Error("vvadd must be unit-stride and almost fully vectorized")
	}
	sp, _ := ByName(ks, "spmv")
	if m := mixOf(sp); m.ByClass[isa.ClassIdx] == 0 || m.ByClass[isa.ClassXE] == 0 {
		t.Error("spmv must gather x through indexed loads and fold rows with reductions")
	}
	sc, _ := ByName(ks, "streamcluster-dist")
	if m := mixOf(sc); m.Predicated == 0 || m.ByClass[isa.ClassUS] == 0 {
		t.Error("streamcluster-dist must be mask-dominated over unit-stride feature columns")
	} else if m.ByClass[isa.ClassIdx] != 0 {
		t.Error("streamcluster-dist's feature-major layout must avoid indexed accesses")
	}
	rx, _ := ByName(ks, "redux")
	if m := mixOf(rx); m.ByClass[isa.ClassXE] == 0 {
		t.Error("redux must use cross-element reduction/gather-tree folding")
	}
}

func TestByName(t *testing.T) {
	ks := Small()
	if _, err := ByName(ks, "vvadd"); err != nil {
		t.Fatal(err)
	}
	err := func() error {
		_, err := ByName(ks, "nope")
		return err
	}()
	if err == nil {
		t.Fatal("expected error for unknown kernel")
	}
	if want := `workloads: unknown kernel "nope"`; err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
}

// TestInGeomean pins the geomean set to the paper's Table IV note: the five
// published kernels are in, and the post-paper extensions (plus the two
// Table IV kernels the paper itself excludes) stay out so the reproduced
// figure keeps its meaning.
func TestInGeomean(t *testing.T) {
	want := map[string]bool{
		"k-means": true, "pathfinder": true, "jacobi-2d": true,
		"backprop": true, "sw": true,
		"vvadd": false, "mmult": false,
		"spmv": false, "streamcluster-dist": false, "redux": false,
	}
	for _, k := range Small() {
		in, ok := want[k.Name]
		if !ok {
			t.Errorf("kernel %q missing from the geomean expectation table", k.Name)
			continue
		}
		if k.InGeomean() != in {
			t.Errorf("%s: InGeomean() = %v, want %v", k.Name, k.InGeomean(), in)
		}
	}
}

// TestFPSaxpyFunctional validates the softfloat SAXPY at several hardware
// vector lengths.
func TestFPSaxpyFunctional(t *testing.T) {
	k := NewFPSaxpy(512)
	for _, hwvl := range []int{4, 64, 1024} {
		b := isa.NewBuilder(mem.NewFlat(16<<20), hwvl, nil)
		if err := k.Run(b, true)(); err != nil {
			t.Fatalf("HWVL=%d: %v", hwvl, err)
		}
	}
	b := isa.NewBuilder(mem.NewFlat(16<<20), 4, nil)
	if err := k.Run(b, false)(); err != nil {
		t.Fatalf("scalar: %v", err)
	}
}

// FuzzSelect holds the -kernels selector's contract on arbitrary input: it
// never panics, a successful selection names one suite kernel per list
// entry, and any subset of the suite's names (picked by mask, in suite
// order) selects exactly those kernels. The empty subset joins to "", which
// selects the whole suite.
func FuzzSelect(f *testing.F) {
	suite := Small()
	f.Add("", uint16(0))
	f.Add("vvadd, k-means", uint16(0b101))
	f.Add("no-such-kernel", uint16(0x3ff))
	f.Add(",", uint16(1))
	f.Add("vvadd,,spmv", uint16(0xffff))
	f.Fuzz(func(t *testing.T, csv string, mask uint16) {
		got, err := Select(suite, csv)
		switch {
		case csv == "":
			if err != nil || len(got) != len(suite) {
				t.Errorf("Select(%q) = %d kernels, %v; want the whole suite", csv, len(got), err)
			}
		case err == nil:
			if len(got) != strings.Count(csv, ",")+1 {
				t.Errorf("Select(%q) = %d kernels for %d entries", csv, len(got), strings.Count(csv, ",")+1)
			}
			for _, k := range got {
				if !slices.Contains(suite, k) {
					t.Errorf("Select(%q) returned %q, not a suite kernel", csv, k.Name)
				}
			}
		}

		var names []string
		var want []*Kernel
		for i, k := range suite {
			if mask&(1<<i) != 0 {
				names = append(names, k.Name)
				want = append(want, k)
			}
		}
		if len(want) == 0 {
			want = suite
		}
		got, err = Select(suite, strings.Join(names, ","))
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("Select(%q) = %v, %v; want those kernels", strings.Join(names, ","), got, err)
		}
	})
}
