package mem

// TrafficGenerator wraps a memory level and injects a steady stream of
// synthetic line requests ahead of real ones — modeling co-running cores
// that share the LLC-to-DRAM path in the paper's CMP setting (§I: "each
// core in a CMP can dynamically create an ephemeral private vector
// engine"). The synthetic stream walks a large private region so it
// consumes bandwidth without polluting the requester's lines.
type TrafficGenerator struct {
	Level       Level
	LinesPer1K  int    // synthetic lines injected per 1000 cycles
	RegionBase  uint64 // start of the synthetic address region
	RegionLines uint64 // region size in lines (walked circularly)

	lastT int64
	next  uint64
}

// NewTrafficGenerator returns a generator over lower injecting the given
// rate, walking a 16 MiB region well above typical workload footprints.
func NewTrafficGenerator(lower Level, linesPer1K int) *TrafficGenerator {
	return &TrafficGenerator{
		Level:       lower,
		LinesPer1K:  linesPer1K,
		RegionBase:  1 << 32,
		RegionLines: (16 << 20) / LineBytes,
	}
}

// Name implements Level.
func (g *TrafficGenerator) Name() string { return g.Level.Name() + "+traffic" }

// Access implements Level: synthetic lines for the elapsed window are
// injected first (bounded per call so a long-idle requester does not pay an
// unbounded catch-up), then the real request is forwarded.
func (g *TrafficGenerator) Access(addr uint64, write bool, t int64) Result {
	if g.LinesPer1K > 0 && t > g.lastT {
		elapsed := t - g.lastT
		n := elapsed * int64(g.LinesPer1K) / 1000
		if n > 64 {
			n = 64
		}
		for i := int64(0); i < n; i++ {
			at := g.lastT + i*elapsed/max64(n, 1)
			la := g.RegionBase + (g.next%g.RegionLines)*LineBytes
			g.next++
			g.Level.Access(la, false, at)
		}
	}
	if t > g.lastT {
		g.lastT = t
	}
	return g.Level.Access(addr, write, t)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
