package mem

import "repro/internal/probe"

// Hierarchy assembles Table III's memory system for one core: private L1D
// and L2 over a shared LLC and single-channel DRAM. The hierarchy is
// inclusive; EVE spawning way-partitions the L2 (§V-E).
type Hierarchy struct {
	L1D  *Cache
	L2   *Cache
	LLC  *Cache
	DRAM *DRAM

	eveActive bool
}

// Table III cache parameters.
var (
	L1DConfig = CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 4, Banks: 1, HitLatency: 2, MSHRs: 16}
	L2Config  = CacheConfig{Name: "L2", SizeBytes: 512 << 10, Ways: 8, Banks: 8, HitLatency: 8, MSHRs: 32}
	LLCConfig = CacheConfig{Name: "LLC", SizeBytes: 2 << 20, Ways: 16, Banks: 8, HitLatency: 12, MSHRs: 32}
)

// NewHierarchy builds the Table III memory system.
func NewHierarchy() *Hierarchy {
	dram := DefaultDRAM()
	llc := NewCache(LLCConfig, dram)
	l2 := NewCache(L2Config, llc)
	l1d := NewCache(L1DConfig, l2)
	return &Hierarchy{L1D: l1d, L2: l2, LLC: llc, DRAM: dram}
}

// SetTracer attaches one per-run event tracer to every level; each level
// emits under its own component path (l1d, l2, llc, dram).
func (h *Hierarchy) SetTracer(tr probe.Tracer) {
	h.L1D.SetTracer(tr)
	h.L2.SetTracer(tr)
	h.LLC.SetTracer(tr)
	h.DRAM.SetTracer(tr)
}

// RegisterStats registers every level of the hierarchy with the stats
// registry under its canonical dotted path.
func (h *Hierarchy) RegisterStats(r *probe.Registry) {
	r.Register("l1d", h.L1D)
	r.Register("l2", h.L2)
	r.Register("llc", h.LLC)
	r.Register("dram", h.DRAM)
}

// CoreAccess performs a scalar core data access through L1D.
func (h *Hierarchy) CoreAccess(addr uint64, write bool, t int64) Result {
	return h.L1D.Access(addr, write, t)
}

// EVEActive reports whether the L2 is currently partitioned for EVE.
func (h *Hierarchy) EVEActive() bool { return h.eveActive }

// SpawnEVE way-partitions the L2 in half (§V-E): the released ways'
// lines are invalidated — a constant number of cycles per line, with dirty
// lines additionally writing back to the LLC — and the method returns the
// reconfiguration cost in cycles. Spawning when already active is free.
func (h *Hierarchy) SpawnEVE() int64 {
	if h.eveActive {
		return 0
	}
	// Halve the L2's *actual* associativity: a hierarchy built with a custom
	// geometry (design-space exploration) splits its own ways, not Table III's.
	invalidated, dirty := h.L2.Partition(h.L2.Ways() / 2)
	h.eveActive = true
	// One cycle to invalidate each line; dirty lines take two more to issue
	// the writeback to the LLC (§V-E: linear in the number of cache lines).
	return int64(invalidated) + 2*int64(dirty)
}

// TeardownEVE restores the full L2 associativity. Per §V-E this is free:
// the returned ways simply come back invalid.
func (h *Hierarchy) TeardownEVE() {
	if !h.eveActive {
		return
	}
	h.L2.Partition(0)
	h.eveActive = false
}
