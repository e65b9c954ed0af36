package vengine

import (
	"slices"
	"testing"

	"repro/internal/isa"
)

func TestLines(t *testing.T) {
	cases := []struct {
		name string
		in   isa.Instr
		want []uint64
	}{
		{"unit inside one line", isa.Instr{Op: isa.OpLoad, Addr: 0x1010, VL: 8},
			[]uint64{0x1000}},
		{"unit exactly one line", isa.Instr{Op: isa.OpStore, Addr: 0x1000, VL: 16},
			[]uint64{0x1000}},
		{"unit crossing a line", isa.Instr{Op: isa.OpLoad, Addr: 0x1030, VL: 8},
			[]uint64{0x1000, 0x1040}},
		{"unit spanning three lines", isa.Instr{Op: isa.OpStore, Addr: 0x1020, VL: 32},
			[]uint64{0x1000, 0x1040, 0x1080}},
		{"positive stride coalesces", isa.Instr{Op: isa.OpLoadStride, Addr: 0x2000, Stride: 8, VL: 16},
			[]uint64{0x2000, 0x2040}},
		{"negative stride coalesces", isa.Instr{Op: isa.OpStoreStride, Addr: 0x2078, Stride: -8, VL: 16},
			[]uint64{0x2040, 0x2000}},
		{"zero stride is one line", isa.Instr{Op: isa.OpLoadStride, Addr: 0x2010, Stride: 0, VL: 64},
			[]uint64{0x2000}},
		{"stride of one line", isa.Instr{Op: isa.OpLoadStride, Addr: 0x3010, Stride: 64, VL: 4},
			[]uint64{0x3000, 0x3040, 0x3080, 0x30c0}},
		{"stride beyond a line", isa.Instr{Op: isa.OpStoreStride, Addr: 0x3000, Stride: 100, VL: 3},
			[]uint64{0x3000, 0x3040, 0x30c0}},
		{"negative stride of one line", isa.Instr{Op: isa.OpLoadStride, Addr: 0x3100, Stride: -64, VL: 3},
			[]uint64{0x3100, 0x30c0, 0x3080}},
		{"indexed keeps duplicates", isa.Instr{Op: isa.OpLoadIdx, VL: 5,
			Addrs: []uint64{0x4000, 0x4004, 0x4100, 0x4000, 0x403c}},
			[]uint64{0x4000, 0x4000, 0x4100, 0x4000, 0x4000}},
		{"indexed store", isa.Instr{Op: isa.OpStoreIdx, VL: 2, Addrs: []uint64{0x5044, 0x5000}},
			[]uint64{0x5040, 0x5000}},
	}
	// dirty is a reused buffer left holding a longer stream than any case
	// produces; its stale entries must never show through.
	dirty := make([]uint64, 0, 8)
	for _, tc := range cases {
		if got := Lines(nil, &tc.in); !slices.Equal(got, tc.want) {
			t.Errorf("%s: Lines(nil) = %#x, want %#x", tc.name, got, tc.want)
		}
		dirty = Lines(dirty, &isa.Instr{Op: isa.OpLoadStride, Addr: 0xdead000, Stride: 64, VL: 8})
		dirty = Lines(dirty, &tc.in)
		if !slices.Equal(dirty, tc.want) {
			t.Errorf("%s: Lines(reused) = %#x, want %#x", tc.name, dirty, tc.want)
		}
	}
}

func TestLinesReusesBuffer(t *testing.T) {
	long := &isa.Instr{Op: isa.OpLoad, Addr: 0, VL: 256}
	short := &isa.Instr{Op: isa.OpLoadIdx, VL: 2, Addrs: []uint64{0x80, 0x80}}
	buf := Lines(nil, long)
	allocs := testing.AllocsPerRun(100, func() {
		buf = Lines(buf, short)
		buf = Lines(buf, long)
	})
	if allocs != 0 {
		t.Errorf("Lines allocated %.1f times per reuse; want 0", allocs)
	}
}

func TestQueue(t *testing.T) {
	var q Queue
	if q.Occupancy() != 0 {
		t.Fatalf("empty queue occupancy = %d", q.Occupancy())
	}
	at := func(k int) int64 { return 1000 + 7*int64(k) } // push k's dispatch time
	for k := 0; k < 3*QueueDepth+5; k++ {
		got := q.Push(at(k))
		want := int64(0)
		if k >= QueueDepth {
			want = at(k - QueueDepth)
		}
		if got != want {
			t.Errorf("push %d returned %d, want %d", k, got, want)
		}
		if occ, want := q.Occupancy(), min(k+1, QueueDepth); occ != want {
			t.Errorf("after push %d occupancy = %d, want %d", k, occ, want)
		}
	}
}
