package mem

import (
	"runtime"
	"testing"
	"unsafe"
)

// preGrow grows c's tag array to cfg.Ways lines per set: the full-size
// array every cache allocated before ways grew on demand, and the reference
// FuzzCacheGrowth holds a growing cache to.
func preGrow(c *Cache) *Cache {
	for c.stride < c.cfg.Ways {
		c.grow()
	}
	return c
}

// checkTwinSets requires every set of the growing cache to hold exactly the
// reference's lines in its allocated ways, the reference's ways past them to
// be invalid, and the valid ways of both to form a prefix of the set.
func checkTwinSets(tb testing.TB, op int, grown, ref *Cache) {
	tb.Helper()
	for s := 0; s < ref.nsets; s++ {
		g := grown.lines[s*grown.stride : (s+1)*grown.stride]
		r := ref.lines[s*ref.stride : (s+1)*ref.stride]
		for w := range r {
			var want line
			if w < len(g) {
				want = g[w]
			}
			if r[w] != want {
				tb.Fatalf("op %d: set %d way %d = %+v, growing cache (stride %d) has %+v",
					op, s, w, r[w], grown.stride, want)
			}
			if w > 0 && r[w].lru != 0 && r[w-1].lru == 0 {
				tb.Fatalf("op %d: set %d way %d is valid after an invalid way", op, s, w)
			}
		}
	}
}

// fuzzWays are the associativities FuzzCacheGrowth draws from: the Table
// III counts plus ones the doubling stride cannot reach exactly.
var fuzzWays = [...]int{1, 3, 6, 12, 16}

// FuzzCacheGrowth drives a cache whose ways grow on demand and a twin
// pre-grown to its full associativity through the same byte-coded sequence
// of reads, writes and way partitions, and requires identical results,
// counters, residency and tag arrays after every one.
//
// Encoding: in[0] picks the ways from fuzzWays, in[1] the set count (1 to
// 16), in[2] the MSHRs (1 to 8), in[3] the banks (1 to 5, so the remainder
// path is covered too). Each following 4-byte group is one operation:
// op[0] selects a read, a write, Partition(ways/2) or Partition(0); op[1]
// is the line address, over three times the cache's capacity in lines so
// sets fill and evict; op[3] advances a monotone clock by its high nibble
// and times the access up to 15 cycles past it by its low one, so requests
// also arrive out of order. The seed corpus is under
// testdata/fuzz/FuzzCacheGrowth.
func FuzzCacheGrowth(f *testing.F) {
	f.Fuzz(func(tb *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		ways := fuzzWays[int(in[0])%len(fuzzWays)]
		sets := 1 << (in[1] % 5)
		cfg := CacheConfig{Name: "c", SizeBytes: sets * ways * LineBytes, Ways: ways,
			Banks: 1 + int(in[3]%5), HitLatency: 2, MSHRs: 1 + int(in[2]%8)}
		grown := NewCache(cfg, DefaultDRAM())
		ref := preGrow(NewCache(cfg, DefaultDRAM()))
		span := uint64(3 * sets * ways)
		var clock int64
		for i, op := 0, in[4:]; len(op) >= 4; i, op = i+1, op[4:] {
			addr := uint64(op[1]) % span * LineBytes
			clock += int64(op[3] >> 4)
			t := clock + int64(op[3]&15)
			switch op[0] % 8 {
			case 0, 1, 2, 3, 4, 5:
				write := op[0]%8 >= 4
				g, r := grown.Access(addr, write, t), ref.Access(addr, write, t)
				if g != r {
					tb.Fatalf("op %d: Access(%#x, %v, %d) = %+v, reference %+v", i, addr, write, t, g, r)
				}
			case 6, 7:
				w := 0
				if op[0]%8 == 6 {
					w = ways / 2
				}
				gi, gd := grown.Partition(w)
				ri, rd := ref.Partition(w)
				if gi != ri || gd != rd {
					tb.Fatalf("op %d: Partition(%d) = %d, %d; reference %d, %d", i, w, gi, gd, ri, rd)
				}
			}
			if g, r := grown.Stats(), ref.Stats(); g != r {
				tb.Fatalf("op %d: stats %+v, reference %+v", i, g, r)
			}
			if g, r := grown.Contains(addr), ref.Contains(addr); g != r {
				tb.Fatalf("op %d: Contains(%#x) = %v, reference %v", i, addr, g, r)
			}
			if g, r := grown.ActiveWays(), ref.ActiveWays(); g != r {
				tb.Fatalf("op %d: ActiveWays() = %d, reference %d", i, g, r)
			}
			if g, r := grown.outstanding.len(), ref.outstanding.len(); g != r {
				tb.Fatalf("op %d: %d outstanding misses, reference %d", i, g, r)
			}
			checkTwinSets(tb, i, grown, ref)
		}
	})
}

// TestLineIs24Bytes pins the packed line: at 32 bytes the garbage left by
// doubling would outweigh the eager array on caches that fill every way.
func TestLineIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 24 {
		t.Fatalf("line is %d bytes, want 24", got)
	}
}

// TestNewHierarchyAllocatesLittle pins that building the Table III
// hierarchy allocates one line per set, not a full tag array: under
// 128 KiB a build, against ~1.33 MB for the eager arrays.
func TestNewHierarchyAllocatesLittle(t *testing.T) {
	const builds = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		NewHierarchy()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / builds; per >= 128<<10 {
		t.Fatalf("NewHierarchy allocates %d bytes a build, want under %d", per, 128<<10)
	}
}

// TestWaysGrowOnDemand checks the stride doubles only when a set runs out
// of allocated ways, stops at cfg.Ways for a count that is not a power of
// two, and that a partition narrower than the stride bounds the active
// ways without shrinking the array.
func TestWaysGrowOnDemand(t *testing.T) {
	c := NewCache(CacheConfig{Name: "c", SizeBytes: 4 * 6 * LineBytes, Ways: 6, HitLatency: 2, MSHRs: 8}, DefaultDRAM())
	step := func(lineAddr uint64, wantStride int) {
		t.Helper()
		c.Access(lineAddr*LineBytes, false, 0)
		if c.stride != wantStride || len(c.lines) != 4*wantStride {
			t.Fatalf("after line %d: stride %d over %d lines, want %d over %d",
				lineAddr, c.stride, len(c.lines), wantStride, 4*wantStride)
		}
	}
	step(0, 1)
	step(1, 1) // another set
	step(4, 2) // set 0's second line
	step(8, 4)
	step(12, 4)
	step(16, 6) // capped at cfg.Ways, not 8
	c.Partition(3)
	if c.active != 3 || c.stride != 6 {
		t.Fatalf("Partition(3): active %d, stride %d; want 3, 6", c.active, c.stride)
	}
	c.Partition(0)
	if c.active != 6 {
		t.Fatalf("Partition(0): active %d, want 6", c.active)
	}
}
