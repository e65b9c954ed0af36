package mem

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// eagerFlat is the reference model for the growing Flat: the same bump
// allocator and bounds over a backing array allocated, zeroed, at its whole
// capacity up front.
type eagerFlat struct {
	data []byte
	brk  uint64
}

func newEagerFlat(capacity int) *eagerFlat {
	return &eagerFlat{data: make([]byte, capacity), brk: 64}
}

func (e *eagerFlat) Alloc(n int, align uint64) uint64 {
	if align == 0 {
		align = 4
	}
	e.brk = (e.brk + align - 1) &^ (align - 1)
	base := e.brk
	e.brk += uint64(n)
	if e.brk > uint64(len(e.data)) {
		panic(fmt.Sprintf("mem: out of memory allocating %d bytes (brk %d, cap %d)",
			n, base, len(e.data)))
	}
	return base
}

func (e *eagerFlat) check(addr uint64) {
	size := uint64(len(e.data))
	if addr < 64 || addr >= size || size-addr < 4 {
		panic(&AccessError{Addr: addr, Len: 4, Cap: size})
	}
}

func (e *eagerFlat) LoadU32(addr uint64) uint32 {
	e.check(addr)
	return binary.LittleEndian.Uint32(e.data[addr:])
}

func (e *eagerFlat) StoreU32(addr uint64, v uint32) {
	e.check(addr)
	binary.LittleEndian.PutUint32(e.data[addr:], v)
}

func (e *eagerFlat) Checksum() uint64 {
	h := uint64(14695981039346656037)
	for _, b := range e.data[:e.brk] {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// recovered runs fn and returns the value it panicked with, or nil.
func recovered(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
}

func TestFlatStartsEmpty(t *testing.T) {
	f := NewFlat(64 << 20)
	if len(f.data) != 0 {
		t.Fatalf("NewFlat allocated %d bytes up front, want 0", len(f.data))
	}
	if got, want := f.Checksum(), newEagerFlat(64).Checksum(); got != want {
		t.Fatalf("Checksum of a fresh Flat = %#x, eager reference %#x", got, want)
	}
	if f.Size() != 64<<20 {
		t.Fatalf("Size() = %d, want the capacity %d", f.Size(), 64<<20)
	}
	f.AllocU32(16)
	if len(f.data) != minGrow {
		t.Fatalf("first growth = %d bytes, want %d", len(f.data), minGrow)
	}
}

func TestFlatGrowthDoublesToCapacity(t *testing.T) {
	const capacity = 5*minGrow + 12
	f := NewFlat(capacity)
	for _, tc := range []struct {
		brk  int // allocate until the break reaches this address
		want int // backing-array length afterwards
	}{
		{100, minGrow},
		{minGrow, minGrow},
		{minGrow + 1, 2 * minGrow},
		{3 * minGrow, 4 * minGrow},
		{capacity, capacity},
	} {
		f.Alloc(tc.brk-int(f.brk), 1)
		if len(f.data) != tc.want {
			t.Fatalf("brk %d: backing array %d bytes, want %d", tc.brk, len(f.data), tc.want)
		}
	}
}

func TestFlatLoadPastBreakIsZero(t *testing.T) {
	const capacity = 1 << 20
	f := NewFlat(capacity)
	a := f.AllocU32(4)
	f.StoreU32(a, 0xdeadbeef)
	for _, addr := range []uint64{f.brk, minGrow - 4, minGrow, capacity / 2, capacity - 4} {
		if got := f.LoadU32(addr); got != 0 {
			t.Errorf("LoadU32(%#x) = %#x past the break, want 0", addr, got)
		}
	}
	if len(f.data) != minGrow {
		t.Errorf("loads grew the backing array to %d bytes", len(f.data))
	}
}

func TestFlatStoreLastWord(t *testing.T) {
	const capacity = 1 << 20
	f := NewFlat(capacity)
	f.StoreU32(capacity-4, 0x01020304)
	if got := f.LoadU32(capacity - 4); got != 0x01020304 {
		t.Fatalf("LoadU32(capacity-4) = %#x after store, want 0x01020304", got)
	}
}

func TestFlatLoadStraddlesEnd(t *testing.T) {
	f := NewFlat(1 << 20)
	f.StoreU32(minGrow-4, 0xaabbccdd)
	if len(f.data) != minGrow {
		t.Fatalf("backing array %d bytes, want %d", len(f.data), minGrow)
	}
	for _, tc := range []struct {
		addr uint64
		want uint32
	}{
		{minGrow - 3, 0x00aabbcc},
		{minGrow - 2, 0x0000aabb},
		{minGrow - 1, 0x000000aa},
	} {
		if got := f.LoadU32(tc.addr); got != tc.want {
			t.Errorf("LoadU32(%#x) = %#x, want %#x", tc.addr, got, tc.want)
		}
	}
}

func TestFlatAllocOutOfMemory(t *testing.T) {
	f, e := NewFlat(1<<12), newEagerFlat(1<<12)
	f.Alloc(1000, 64)
	e.Alloc(1000, 64)
	got := recovered(func() { f.Alloc(1<<12, 64) })
	want := recovered(func() { e.Alloc(1<<12, 64) })
	const msg = "mem: out of memory allocating 4096 bytes (brk 1088, cap 4096)"
	if got != msg || want != msg {
		t.Fatalf("Alloc past capacity panicked with %q (reference %q), want %q", got, want, msg)
	}
}

func TestFlatNegativeCapacityPanics(t *testing.T) {
	p := recovered(func() { NewFlat(-1) })
	if s, _ := p.(string); !strings.Contains(s, "negative") {
		t.Fatalf("NewFlat(-1) panicked with %v, want a negative-capacity message", p)
	}
}

func TestFlatChecksumMatchesEager(t *testing.T) {
	const capacity = 3*minGrow + 12
	f, e := NewFlat(capacity), newEagerFlat(capacity)
	store := func(addr uint64, v uint32) {
		f.StoreU32(addr, v)
		e.StoreU32(addr, v)
	}
	a := f.AllocU32(100)
	e.Alloc(400, 64)
	for i := uint64(0); i < 100; i++ {
		store(a+4*i, uint32(i*2654435761))
	}
	store(2*minGrow+2, 0x12345678) // wild but in bounds, past the break
	b := f.Alloc(2*minGrow, 64)    // the break now covers the wild store
	e.Alloc(2*minGrow, 64)
	store(b+minGrow-2, 0xcafef00d) // straddles the first growth boundary
	if got, want := f.Checksum(), e.Checksum(); got != want {
		t.Fatalf("Checksum = %#x, eager reference %#x", got, want)
	}
}

// FuzzFlat drives the growing Flat and the eager reference through the same
// byte-coded sequence of Alloc, StoreU32 and LoadU32 operations, in and out
// of bounds, and requires identical load values, panics and checksums.
//
// Encoding: the first byte picks the capacity; each following 4-byte group
// is one operation, selected by its first byte modulo 3. The seed corpus is
// under testdata/fuzz/FuzzFlat.
func FuzzFlat(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		capacities := [...]int{64, 96, 4 << 10, minGrow + 100, 3*minGrow + 12, 1 << 20}
		aligns := [...]uint64{0, 1, 4, 64, 4096}
		if len(in) == 0 {
			return
		}
		capacity := capacities[int(in[0])%len(capacities)]
		g, e := NewFlat(capacity), newEagerFlat(capacity)
		for i, op := 0, in[1:]; len(op) >= 4; i, op = i+1, op[4:] {
			arg := uint64(binary.LittleEndian.Uint16(op[2:]))
			var addr uint64
			switch op[1] % 4 {
			case 0: // around the break, below 64 and wrapping when it is low
				addr = e.brk + arg - 1<<15
			case 1: // spread over the capacity and just past it
				addr = arg * uint64(capacity+8) >> 16
			case 2: // the last words of the capacity
				addr = uint64(capacity) - 8 + arg%16
			case 3: // around a growth boundary
				addr = minGrow<<(arg%4) - 4 + (arg>>2)%8
			}
			var gv, ev uint32
			var gp, ep any
			switch op[0] % 3 {
			case 0:
				n := int(op[1]) << (op[2] % 12)
				align := aligns[int(op[3])%len(aligns)]
				var gb, eb uint64
				gp = recovered(func() { gb = g.Alloc(n, align) })
				ep = recovered(func() { eb = e.Alloc(n, align) })
				if gb != eb {
					t.Fatalf("op %d: Alloc(%d, %d) = %#x, reference %#x", i, n, align, gb, eb)
				}
			case 1:
				v := uint32(arg)*2654435761 + uint32(i)
				gp = recovered(func() { g.StoreU32(addr, v) })
				ep = recovered(func() { e.StoreU32(addr, v) })
			case 2:
				gp = recovered(func() { gv = g.LoadU32(addr) })
				ep = recovered(func() { ev = e.LoadU32(addr) })
				if gv != ev {
					t.Fatalf("op %d: LoadU32(%#x) = %#x, reference %#x", i, addr, gv, ev)
				}
			}
			if !reflect.DeepEqual(gp, ep) {
				t.Fatalf("op %d (%v) at %#x: panic %#v, reference %#v", i, op[:4], addr, gp, ep)
			}
			if _, oom := gp.(string); oom {
				return // out of memory is fatal: the break is left past the capacity
			}
			if (len(g.data) > 0 && uint64(len(g.data)) < g.brk) || len(g.data) > capacity {
				t.Fatalf("op %d: backing array %d bytes with break %d, capacity %d",
					i, len(g.data), g.brk, capacity)
			}
		}
		if got, want := g.Checksum(), e.Checksum(); got != want {
			t.Fatalf("Checksum = %#x, reference %#x", got, want)
		}
	})
}
