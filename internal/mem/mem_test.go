package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFlatRoundTrip(t *testing.T) {
	f := NewFlat(1 << 16)
	a := f.AllocU32(16)
	b := f.AllocU32(16)
	if a == b {
		t.Fatal("allocations overlap")
	}
	f.StoreU32(a, 0xDEADBEEF)
	f.StoreI32(b, -7)
	if f.LoadU32(a) != 0xDEADBEEF {
		t.Fatal("u32 round trip failed")
	}
	if f.LoadI32(b) != -7 {
		t.Fatal("i32 round trip failed")
	}
}

func TestFlatProperty(t *testing.T) {
	f := NewFlat(1 << 16)
	base := f.AllocU32(256)
	fn := func(idx uint8, v uint32) bool {
		addr := base + uint64(idx)*4
		f.StoreU32(addr, v)
		return f.LoadU32(addr) == v
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlatOutOfBoundsPanics(t *testing.T) {
	f := NewFlat(1 << 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on OOB access")
		}
	}()
	f.LoadU32(uint64(f.Size()))
}

func TestCacheHitMiss(t *testing.T) {
	dram := DefaultDRAM()
	c := NewCache(CacheConfig{Name: "c", SizeBytes: 1 << 12, Ways: 2, HitLatency: 2, MSHRs: 4}, dram)
	r1 := c.Access(0x1000, false, 0)
	if r1.Done <= dram.Latency {
		t.Fatalf("first access should miss to DRAM: done=%d", r1.Done)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats after miss: %+v", st)
	}
	r2 := c.Access(0x1000, false, r1.Done+1)
	if got := r2.Done - r2.Accepted; got != 2 {
		t.Fatalf("hit latency = %d, want 2", got)
	}
	if c.Stats().Hits != 1 {
		t.Fatal("second access should hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, tiny cache: lines mapping to the same set evict LRU.
	c := NewCache(CacheConfig{Name: "c", SizeBytes: 2 * LineBytes, Ways: 2, HitLatency: 1, MSHRs: 4}, DefaultDRAM())
	// One set only. Fill both ways, then access a third line.
	c.Access(0*LineBytes, false, 0)
	c.Access(1*LineBytes, false, 100)
	c.Access(0*LineBytes, false, 200) // touch line 0: line 1 becomes LRU
	c.Access(2*LineBytes, false, 300) // evicts line 1
	if !c.Contains(0 * LineBytes) {
		t.Fatal("line 0 should remain")
	}
	if c.Contains(1 * LineBytes) {
		t.Fatal("line 1 should have been evicted (LRU)")
	}
	if !c.Contains(2 * LineBytes) {
		t.Fatal("line 2 should be resident")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := NewCache(CacheConfig{Name: "c", SizeBytes: 2 * LineBytes, Ways: 2, HitLatency: 1, MSHRs: 4}, DefaultDRAM())
	c.Access(0*LineBytes, true, 0) // dirty
	c.Access(1*LineBytes, false, 100)
	c.Access(2*LineBytes, false, 200) // evicts line 0 (dirty) -> writeback
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

// TestMSHRLimitSerializes checks that a burst of misses beyond the MSHR
// count has its tail delayed — the VMU stall effect of Fig 8.
func TestMSHRLimitSerializes(t *testing.T) {
	run := func(mshrs int) int64 {
		c := NewCache(CacheConfig{Name: "c", SizeBytes: 1 << 16, Ways: 4, HitLatency: 1, MSHRs: mshrs}, DefaultDRAM())
		var last int64
		for i := 0; i < 32; i++ {
			r := c.Access(uint64(i)*LineBytes*257, false, int64(i)) // distinct sets
			if r.Done > last {
				last = r.Done
			}
		}
		return last
	}
	few, many := run(2), run(32)
	if few <= many {
		t.Fatalf("2 MSHRs should be slower than 32: %d vs %d", few, many)
	}
	// With 2 MSHRs the requests must report acceptance stalls.
	c := NewCache(CacheConfig{Name: "c", SizeBytes: 1 << 16, Ways: 4, HitLatency: 1, MSHRs: 2}, DefaultDRAM())
	stalled := false
	for i := 0; i < 16; i++ {
		r := c.Access(uint64(i)*LineBytes*257, false, 0)
		if r.Accepted > 0 {
			stalled = true
		}
	}
	if !stalled {
		t.Fatal("expected MSHR acceptance stalls")
	}
	if c.Stats().MSHRStall == 0 {
		t.Fatal("MSHRStall counter not incremented")
	}
}

func TestMissMerging(t *testing.T) {
	c := NewCache(CacheConfig{Name: "c", SizeBytes: 1 << 14, Ways: 4, HitLatency: 1, MSHRs: 8}, DefaultDRAM())
	r1 := c.Access(0x4000, false, 0)
	r2 := c.Access(0x4000, false, 1) // same line, while outstanding
	if r2.Done < r1.Done {
		t.Fatalf("merged access finished before the fill: %d < %d", r2.Done, r1.Done)
	}
	if c.Stats().MergedMiss == 0 && c.Stats().Hits == 0 {
		t.Fatal("second access neither merged nor hit")
	}
}

func TestDRAMBandwidthSerializes(t *testing.T) {
	d := DefaultDRAM()
	r1 := d.Access(0, false, 0)
	r2 := d.Access(4096, false, 0)
	if r2.Accepted <= r1.Accepted {
		t.Fatal("bus should serialize concurrent transfers")
	}
	if d.Accesses() != 2 {
		t.Fatal("access count wrong")
	}
}

func TestHierarchySpawnTeardown(t *testing.T) {
	h := NewHierarchy()
	// Fill one L2 set across all 8 ways (stride = nsets lines), one dirty,
	// so the released ways hold data.
	nsets := uint64(L2Config.SizeBytes / (LineBytes * L2Config.Ways))
	for i := uint64(0); i < 8; i++ {
		h.L2.Access(i*nsets*LineBytes, i == 5, int64(i*200))
	}
	cost := h.SpawnEVE()
	if cost <= 0 {
		t.Fatalf("spawn cost = %d, want > 0 with resident lines", cost)
	}
	if !h.EVEActive() {
		t.Fatal("EVE should be active")
	}
	if again := h.SpawnEVE(); again != 0 {
		t.Fatalf("double spawn cost = %d, want 0", again)
	}
	h.TeardownEVE()
	if h.EVEActive() {
		t.Fatal("teardown failed")
	}
	// Teardown is free and restores ways; a fresh spawn with a cold cache
	// costs nothing.
	if cost := h.SpawnEVE(); cost != 0 {
		t.Fatalf("spawn over invalid ways cost %d, want 0", cost)
	}
}

func TestPartitionHalvesCapacity(t *testing.T) {
	h := NewHierarchy()
	h.SpawnEVE()
	// Fill more lines than 4 ways can hold in one set: 5 lines mapping to
	// the same set of the partitioned L2 must cause an eviction.
	nsets := uint64(L2Config.SizeBytes / (LineBytes * L2Config.Ways))
	base := uint64(0x100000)
	for i := uint64(0); i < 5; i++ {
		h.L2.Access(base+i*nsets*LineBytes, false, int64(i*200))
	}
	resident := 0
	for i := uint64(0); i < 5; i++ {
		if h.L2.Contains(base + i*nsets*LineBytes) {
			resident++
		}
	}
	if resident > 4 {
		t.Fatalf("partitioned L2 holds %d lines in one set; want ≤ 4", resident)
	}
}

// TestBankConflictStalls covers both bank selections: by mask for a
// power-of-two bank count, by remainder otherwise.
func TestBankConflictStalls(t *testing.T) {
	for _, banks := range []int{2, 3} {
		c := NewCache(CacheConfig{Name: "c", SizeBytes: 1 << 16, Ways: 4, Banks: banks, HitLatency: 1, MSHRs: 32}, DefaultDRAM())
		same, other := uint64(banks)*LineBytes, uint64(1)*LineBytes
		// Warm two lines in bank 0 and one in bank 1.
		c.Access(0, false, 0)
		c.Access(same, false, 1000)
		c.Access(other, false, 1000)
		// Simultaneous hits to the same bank serialize.
		r1 := c.Access(0, false, 2000)
		r2 := c.Access(same, false, 2000)
		if r2.Accepted <= r1.Accepted {
			t.Fatalf("%d banks: same-bank accesses should serialize", banks)
		}
		stall := c.Stats().BankStall
		if stall == 0 {
			t.Fatalf("%d banks: bank stall not counted", banks)
		}
		// A hit in another bank at the same time does not wait.
		if r := c.Access(other, false, 2000); r.Accepted != 2000 || c.Stats().BankStall != stall {
			t.Fatalf("%d banks: other-bank hit accepted at %d, stall %d -> %d",
				banks, r.Accepted, stall, c.Stats().BankStall)
		}
	}
}

func TestTrafficGeneratorConsumesBandwidth(t *testing.T) {
	run := func(coRunners int) int64 {
		llc := NewCache(LLCConfig, NewTrafficGenerator(DefaultDRAM(), coRunners*300))
		var tt int64
		var last int64
		for i := 0; i < 512; i++ {
			r := llc.Access(uint64(0x100000+i*LineBytes), false, tt)
			tt = r.Accepted + 1
			if r.Done > last {
				last = r.Done
			}
		}
		return last
	}
	alone, crowded := run(0), run(3)
	if crowded <= alone {
		t.Fatalf("3 co-runners (%d cycles) should slow a 512-line stream vs alone (%d)", crowded, alone)
	}
}

// TestOutstandingEntryOutlivesEviction pins the MSHR bookkeeping the hit
// path's per-line mirror must preserve: a miss entry outlives eviction of its
// line, so a later access to the evicted line counts as a merged miss at hit
// latency, with no lower-level access and no reinstall.
func TestOutstandingEntryOutlivesEviction(t *testing.T) {
	dram := DefaultDRAM()
	c := NewCache(CacheConfig{Name: "c", SizeBytes: 2 * LineBytes, Ways: 2, HitLatency: 2, MSHRs: 4}, dram)
	for i := int64(0); i < 3; i++ {
		c.Access(uint64(i)*LineBytes, false, i) // line 2 evicts line 0
	}
	before := dram.Accesses()
	r := c.Access(0, false, 5000)
	if got := c.Stats().MergedMiss; got != 1 {
		t.Errorf("MergedMiss = %d, want 1", got)
	}
	if got := dram.Accesses() - before; got != 0 {
		t.Errorf("DRAM accesses +%d, want +0", got)
	}
	if r.Done != 5002 {
		t.Errorf("Done = %d, want 5002", r.Done)
	}
	if c.Contains(0) {
		t.Error("line 0 was reinstalled")
	}
}

// TestPendingMirrorTracksMap checks the per-line copy of the outstanding
// table after every access of a seeded random stream, through hits that wait
// for a fill, hits that drop a stale entry, evictions, write allocations and
// the size-bounded sweep.
func TestPendingMirrorTracksMap(t *testing.T) {
	c := NewCache(CacheConfig{Name: "c", SizeBytes: 1 << 14, Ways: 4, HitLatency: 2, MSHRs: 8}, DefaultDRAM())
	rng := rand.New(rand.NewSource(1))
	swept := false
	for i := 0; i < 40000; i++ {
		// A wide address range keeps the table above the sweep threshold
		// while a narrow hot range produces hits on pending lines.
		lineAddr := uint64(rng.Intn(64))
		if rng.Intn(2) == 0 {
			lineAddr = uint64(rng.Intn(1 << 16))
		}
		n := c.outstanding.len()
		c.Access(lineAddr*LineBytes, rng.Intn(8) == 0, int64(i*4))
		if c.outstanding.len() < n-1 { // a hit drops at most one entry
			swept = true
		}
		for j := range c.lines {
			l := &c.lines[j]
			if l.lru == 0 {
				continue
			}
			addr := (l.tag&^lineFlags)*uint64(c.nsets) + uint64(j/c.stride)
			pend, ok := c.outstanding.get(addr)
			if pending := l.tag&linePending != 0; pending != ok || (ok && l.pend != pend) {
				t.Fatalf("access %d: line %#x pending=%v pend=%d, table has %d (present %v)",
					i, addr, pending, l.pend, pend, ok)
			}
		}
	}
	if !swept {
		t.Fatal("stream never shrank the outstanding table; the sweep went untested")
	}
}
