// Package mem provides the memory-system substrate: a flat functional data
// memory used by workload execution, and a cycle-approximate timing model of
// the cache hierarchy of Table III — parameterized caches with banks and
// MSHRs over a single-channel DDR4-2400-like DRAM. The timing model follows
// the same philosophy as the paper's gem5 setup: requests carry a timestamp
// and each level returns when the data is available, with structural hazards
// (bank conflicts, MSHR exhaustion) pushing acceptance later.
package mem

import (
	"encoding/binary"
	"fmt"
)

// AccessError reports a flat-memory access outside the mapped range — a
// wild address, typically a kernel bug or a fault-corrupted index register.
// Flat panics with a *AccessError so the invariant still fails loudly, while
// sim.Run can recover it into a typed SimError for fault campaigns.
type AccessError struct {
	Addr uint64 // first byte of the offending access
	Len  int    // access length in bytes
	Cap  uint64 // mapped capacity
}

func (e *AccessError) Error() string {
	return fmt.Sprintf("mem: access [%#x,%#x) out of bounds (capacity %#x)",
		e.Addr, e.Addr+uint64(e.Len), e.Cap)
}

// Flat is the functional data memory: a byte-addressable array with a bump
// allocator. Address 0 is kept unmapped so that zero-value addresses fault
// loudly.
//
// The capacity is fixed at construction, but the backing array grows on
// demand: it always covers the allocation break, and a store past its end
// grows it. A load past its end reads zero, exactly what the eagerly zeroed
// store would have returned, so a run costs host memory in proportion to the
// memory the simulated program touches rather than to the capacity.
type Flat struct {
	data     []byte // backing store for addresses [0, len(data)); never past capacity
	brk      uint64
	capacity uint64
	// span is how many word addresses the inlined fast paths serve: every
	// addr in [64, 64+span) has addr+4 <= len(data). One unsigned compare
	// against it also rejects the null page, keeping LoadU32 and StoreU32
	// within the inlining budget.
	span uint64
}

// minGrow is the first backing-array size; each later growth doubles it.
const minGrow = 64 << 10

// NewFlat returns a flat memory with the given capacity in bytes.
func NewFlat(capacity int) *Flat {
	if capacity < 0 {
		panic(fmt.Sprintf("mem: negative flat-memory capacity %d", capacity))
	}
	return &Flat{brk: 64, capacity: uint64(capacity)}
}

// Alloc reserves n bytes aligned to align (a power of two) and returns the
// base address.
func (f *Flat) Alloc(n int, align uint64) uint64 {
	if align == 0 {
		align = 4
	}
	f.brk = (f.brk + align - 1) &^ (align - 1)
	base := f.brk
	f.brk += uint64(n)
	if f.brk > f.capacity {
		panic(fmt.Sprintf("mem: out of memory allocating %d bytes (brk %d, cap %d)",
			n, base, f.capacity))
	}
	f.grow(f.brk)
	return base
}

// AllocU32 reserves space for n 32-bit words and returns the base address.
func (f *Flat) AllocU32(n int) uint64 { return f.Alloc(4*n, 64) }

func (f *Flat) check(addr uint64, n int) {
	if addr < 64 || addr > f.capacity || uint64(n) > f.capacity-addr {
		panic(&AccessError{Addr: addr, Len: n, Cap: f.capacity})
	}
}

// grow extends the backing array to cover [0, end), doubling from minGrow
// and capping at the capacity. end must not exceed the capacity.
func (f *Flat) grow(end uint64) {
	if end <= uint64(len(f.data)) {
		return
	}
	n := uint64(minGrow)
	for n < end {
		n <<= 1
	}
	n = min(n, f.capacity)
	data := make([]byte, n)
	copy(data, f.data)
	f.data = data
	f.span = uint64(max(len(data), 67) - 67)
}

// LoadU32 reads the little-endian 32-bit word at addr.
func (f *Flat) LoadU32(addr uint64) uint32 {
	if addr-64 < f.span {
		return binary.LittleEndian.Uint32(f.data[addr:])
	}
	return f.loadSlow(addr)
}

// loadSlow is LoadU32 outside the fast window: it faults out-of-bounds
// addresses and reads the bytes past the end of the backing array as zero.
// It stays out of line so LoadU32 remains inlinable.
//
//go:noinline
func (f *Flat) loadSlow(addr uint64) uint32 {
	f.check(addr, 4)
	var v uint32
	for i := uint64(0); i < 4 && addr+i < uint64(len(f.data)); i++ {
		v |= uint32(f.data[addr+i]) << (8 * i)
	}
	return v
}

// StoreU32 writes the little-endian 32-bit word v at addr.
func (f *Flat) StoreU32(addr uint64, v uint32) {
	if addr-64 < f.span {
		binary.LittleEndian.PutUint32(f.data[addr:], v)
		return
	}
	f.storeSlow(addr, v)
}

// storeSlow is StoreU32 outside the fast window: it faults out-of-bounds
// addresses and grows the backing array to cover the word. It stays out of
// line so StoreU32 remains inlinable.
//
//go:noinline
func (f *Flat) storeSlow(addr uint64, v uint32) {
	f.check(addr, 4)
	f.grow(addr + 4)
	binary.LittleEndian.PutUint32(f.data[addr:], v)
}

// LoadI32 reads a signed 32-bit word.
func (f *Flat) LoadI32(addr uint64) int32 { return int32(f.LoadU32(addr)) }

// StoreI32 writes a signed 32-bit word.
func (f *Flat) StoreI32(addr uint64, v int32) { f.StoreU32(addr, uint32(v)) }

// Size reports the capacity in bytes.
func (f *Flat) Size() int { return int(f.capacity) }

// Checksum returns an FNV-1a hash of the allocated region (addresses below
// the current break). Fault campaigns compare final-state checksums against
// a fault-free baseline to detect silent data corruption the workload
// checkers miss. Stores beyond the break — possible only through a
// wild-but-in-bounds address — are deliberately outside the hash: they can
// never be read back by a kernel whose allocations all precede them.
func (f *Flat) Checksum() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	// The backing array covers the break once anything is allocated; before
	// that, the 64 unmapped bytes below it hash as the zeros they read as.
	covered := f.data[:min(f.brk, uint64(len(f.data)))]
	for _, b := range covered {
		h ^= uint64(b)
		h *= prime
	}
	for i := uint64(len(covered)); i < f.brk; i++ {
		h *= prime
	}
	return h
}
