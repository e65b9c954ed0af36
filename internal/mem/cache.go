package mem

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/probe"
)

// LineBytes is the cache line size used throughout the hierarchy.
const LineBytes = 64

// Result describes the outcome of a timed memory access.
type Result struct {
	// Accepted is when the level actually took the request — later than the
	// request time if MSHRs or banks were exhausted (the stall Fig 8 plots).
	Accepted int64
	// Done is when the data is available to the requester.
	Done int64
}

// Level is a component that can serve timed line-granular accesses.
type Level interface {
	// Access requests the line containing addr at time t. write marks the
	// intent (write-allocate policy; dirty state tracking).
	Access(addr uint64, write bool, t int64) Result
	// Name identifies the level in statistics.
	Name() string
}

// CacheConfig parameterizes one cache level (Table III).
type CacheConfig struct {
	Name       string
	SizeBytes  int
	Ways       int
	Banks      int
	HitLatency int64
	MSHRs      int
}

// CacheStats counts cache activity.
type CacheStats struct {
	Accesses    uint64
	Hits        uint64
	Misses      uint64
	Writebacks  uint64
	MSHRStall   int64 // cycles requests spent waiting for an MSHR
	BankStall   int64 // cycles requests spent waiting for a bank
	MergedMiss  uint64
	Invalidates uint64
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// pending mirrors the outstanding table while the line is resident, so
	// hits never consult it: pending is true exactly when outstanding holds
	// the line's address, and pend is that entry's completion time.
	pending bool
	lru     uint64
	pend    int64
}

// releaseHeap is a min-heap of busy-resource release times. It implements
// push/pop directly on int64 rather than through container/heap, whose
// interface{}-typed Push would box every release time on the access path.
type releaseHeap []int64

// push adds a release time, sifting it up to its heap position.
func (h *releaseHeap) push(v int64) {
	//evelint:allow hotalloc -- amortized: the backing array grows to the MSHR pool size once, then reuses
	*h = append(*h, v)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the earliest release time.
func (h *releaseHeap) pop() int64 {
	s := *h
	earliest := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		small := i
		if l := 2*i + 1; l < n && s[l] < s[small] {
			small = l
		}
		if r := 2*i + 2; r < n && s[r] < s[small] {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return earliest
}

// Cache is one timed cache level: set-associative tags with LRU, per-bank
// occupancy, and a bounded pool of MSHRs tracking outstanding misses.
// Secondary misses to an outstanding line merge instead of consuming a new
// MSHR.
type Cache struct {
	cfg   CacheConfig
	lines []line // set-major: set i holds lines[i*cfg.Ways : (i+1)*cfg.Ways]
	nsets int
	// setMask and setBits split a line address into set (low bits) and
	// tag (the rest); nsets is a power of two.
	setMask uint64
	setBits uint
	banks   []int64
	// bankMask selects an access's bank by mask when the bank count is a
	// power of two (every Table III level); it is -1 otherwise, and the
	// bank is taken by remainder.
	bankMask int
	mshrs    releaseHeap
	// outstanding maps line address -> completion time of the in-flight miss.
	outstanding pendingTable
	lower       Level
	clock       uint64 // LRU tick
	stats       CacheStats

	// partition restricts allocation to the first partitionWays ways when
	// nonzero (EVE way-partitioning, §V-E).
	partitionWays int

	tr probe.Emitter
}

// SetTracer attaches a per-run event tracer; the cache traces under its
// lower-cased level name ("l1d", "l2", "llc").
func (c *Cache) SetTracer(tr probe.Tracer) {
	c.tr = probe.NewEmitter(tr, strings.ToLower(c.cfg.Name))
}

// ProbeStats implements probe.Source, publishing the level's counters into
// the hierarchical registry.
func (c *Cache) ProbeStats(s *probe.Scope) {
	st := c.stats
	s.CounterU("accesses", st.Accesses)
	s.CounterU("hits", st.Hits)
	s.CounterU("misses", st.Misses)
	rate := 0.0
	if st.Accesses > 0 {
		rate = float64(st.Misses) / float64(st.Accesses)
	}
	s.Float("miss_rate", rate)
	s.CounterU("writebacks", st.Writebacks)
	s.CounterU("merged_misses", st.MergedMiss)
	s.CounterU("invalidates", st.Invalidates)
	s.Counter("mshr.stall_cycles", st.MSHRStall)
	s.Counter("bank.stall_cycles", st.BankStall)
}

// NewCache builds a cache over the given lower level.
func NewCache(cfg CacheConfig, lower Level) *Cache {
	if cfg.Ways <= 0 {
		panic(fmt.Sprintf("mem: %s has %d ways; must be positive", cfg.Name, cfg.Ways))
	}
	nsets := cfg.SizeBytes / (LineBytes * cfg.Ways)
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("mem: %s has %d sets; must be a positive power of two", cfg.Name, nsets))
	}
	if cfg.Banks <= 0 {
		cfg.Banks = 1
	}
	bankMask := -1
	if cfg.Banks&(cfg.Banks-1) == 0 {
		bankMask = cfg.Banks - 1
	}
	return &Cache{
		cfg:      cfg,
		nsets:    nsets,
		setMask:  uint64(nsets - 1),
		setBits:  uint(bits.TrailingZeros(uint(nsets))),
		lines:    make([]line, nsets*cfg.Ways),
		banks:    make([]int64, cfg.Banks),
		bankMask: bankMask,
		lower:    lower,
	}
}

// Name identifies the cache.
func (c *Cache) Name() string { return c.cfg.Name }

// Ways reports the cache's configured associativity (ignoring any active
// partition), so callers holding only the built cache — a hierarchy whose
// geometry was overridden per cell, say — can reason about way splits
// without reaching for the package-level Table III configs.
func (c *Cache) Ways() int { return c.cfg.Ways }

// ActiveWays reports the associativity currently available to the
// replacement policy: the partition size while an EVE owns the rest,
// the configured Ways otherwise.
func (c *Cache) ActiveWays() int { return c.ways() }

// ProbeGauges implements probe.GaugeSource: the level's instantaneous state
// per window — live associativity (it shrinks while an EVE owns ways) and
// how many MSHRs are still tracking in-flight misses at cycle now.
func (c *Cache) ProbeGauges(s *probe.Scope, now int64) {
	s.Counter("ways_active", int64(c.ways()))
	var busy int64
	for _, release := range c.mshrs {
		if release > now {
			busy++
		}
	}
	s.Counter("mshr.occupancy", busy)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// ResetStats zeroes the counters (tags and timing state are kept).
func (c *Cache) ResetStats() { c.stats = CacheStats{} }

func (c *Cache) index(lineAddr uint64) (set int, tag uint64) {
	return int(lineAddr & c.setMask), lineAddr >> c.setBits
}

func (c *Cache) ways() int {
	if c.partitionWays > 0 {
		return c.partitionWays
	}
	return c.cfg.Ways
}

// set returns the ways of set i that the replacement policy may use.
func (c *Cache) set(i int) []line {
	base := i * c.cfg.Ways
	return c.lines[base : base+c.ways()]
}

// Access implements Level.
func (c *Cache) Access(addr uint64, write bool, t int64) Result {
	c.stats.Accesses++
	lineAddr := addr / LineBytes
	set, tag := c.index(lineAddr)

	// Bank arbitration: each access occupies its bank for one cycle.
	// Requests from decoupled units arrive with out-of-order timestamps, so
	// a conflict is only honored within a small window — otherwise a
	// future-timestamped access would falsely block much earlier ones.
	const bankWindow = 4
	b := int(lineAddr) & c.bankMask
	if c.bankMask < 0 {
		b = int(lineAddr) % len(c.banks)
	}
	start := t
	if c.banks[b] > start && c.banks[b]-start <= bankWindow {
		c.stats.BankStall += c.banks[b] - start
		c.tr.Span(probe.KStall, "bank", start, c.banks[b])
		start = c.banks[b]
	}
	if start+1 > c.banks[b] {
		c.banks[b] = start + 1
	}

	ls := c.set(set)
	c.clock++
	for i := range ls {
		if ls[i].valid && ls[i].tag == tag {
			c.stats.Hits++
			ls[i].lru = c.clock
			if write {
				ls[i].dirty = true
			}
			done := start + c.cfg.HitLatency
			// A line installed by an in-flight miss is not actually present
			// until its fill completes; late hits wait for it.
			if l := &ls[i]; l.pending {
				if l.pend > done {
					done = l.pend
				} else {
					c.outstanding.del(lineAddr)
					l.pending = false
				}
			}
			c.tr.SpanAddr(probe.KAccess, "hit", start, done, lineAddr*LineBytes)
			return Result{Accepted: start, Done: done}
		}
	}

	// Miss. Merge with an outstanding request to the same line if any.
	c.stats.Misses++
	if done, ok := c.outstanding.get(lineAddr); ok {
		c.stats.MergedMiss++
		if done < start+c.cfg.HitLatency {
			done = start + c.cfg.HitLatency
		}
		c.tr.SpanAddr(probe.KAccess, "merged_miss", start, done, lineAddr*LineBytes)
		return Result{Accepted: start, Done: done}
	}

	// Write misses allocate without fetching: cache-line-granular writers
	// (vector store drains, writebacks from above) overwrite the whole line,
	// so no read of the lower level is needed — the bandwidth is charged
	// when the dirty line eventually writes back.
	if write {
		c.install(set, tag, true, start)
		c.tr.SpanAddr(probe.KAccess, "write_alloc", start, start+c.cfg.HitLatency, lineAddr*LineBytes)
		return Result{Accepted: start, Done: start + c.cfg.HitLatency}
	}

	// Acquire an MSHR, stalling until one frees if the pool is full.
	issue := start
	for len(c.mshrs) > 0 && c.mshrs[0] <= issue {
		c.mshrs.pop()
	}
	if len(c.mshrs) >= c.cfg.MSHRs {
		free := c.mshrs[0]
		c.stats.MSHRStall += free - issue
		c.tr.Span(probe.KStall, "mshr", issue, free)
		issue = free
		for len(c.mshrs) > 0 && c.mshrs[0] <= issue {
			c.mshrs.pop()
		}
	}

	lower := c.lower.Access(addr, false, issue+c.cfg.HitLatency)
	done := lower.Done + c.cfg.HitLatency
	c.mshrs.push(done)
	// The tag is installed now but marked outstanding until the fill
	// completes, so accesses arriving before `done` wait for it. Entries are
	// cleaned lazily on later hits, with a size-bounded sweep as backstop.
	// An entry outlives eviction of its line, so a re-miss after eviction
	// still merges; while the line is resident, it carries a copy.
	c.outstanding.put(lineAddr, done)
	if c.outstanding.len() > 4096 {
		c.outstanding.sweep(issue)
		// Clear the resident copies of the deleted entries: one sequential
		// pass, cheaper than a set lookup per deleted entry.
		for i := range c.lines {
			if l := &c.lines[i]; l.pending && l.pend <= issue {
				l.pending = false
			}
		}
	}
	l := c.install(set, tag, write, done)
	l.pending, l.pend = true, done
	c.tr.SpanAddr(probe.KAccess, "miss", start, done, lineAddr*LineBytes)
	return Result{Accepted: issue, Done: done}
}

// install places the fetched line, evicting the LRU victim (writing it back
// if dirty), and returns it.
func (c *Cache) install(set int, tag uint64, dirty bool, t int64) *line {
	ls := c.set(set)
	victim := 0
	for i := range ls {
		if !ls[i].valid {
			victim = i
			break
		}
		if ls[i].lru < ls[victim].lru {
			victim = i
		}
	}
	if ls[victim].valid && ls[victim].dirty {
		c.stats.Writebacks++
		victimLine := ls[victim].tag<<c.setBits | uint64(set)
		if c.tr.On() {
			c.tr.Emit(probe.Event{Kind: probe.KWriteback, Name: "writeback",
				Begin: t, End: t, Addr: victimLine * LineBytes})
		}
		c.lower.Access(victimLine*LineBytes, true, t)
	}
	ls[victim] = line{tag: tag, valid: true, dirty: dirty, lru: c.clock}
	return &ls[victim]
}

// Partition restricts the cache to its first `ways` ways, invalidating lines
// in the released ways and reporting how many were dirty — the reconfiguration
// that spawns EVE (§V-E). Pass cfg.Ways (or 0) to restore full associativity;
// restored ways come back invalid, also per §V-E.
func (c *Cache) Partition(ways int) (invalidated, dirty int) {
	if ways <= 0 || ways > c.cfg.Ways {
		ways = c.cfg.Ways
	}
	// Ways past the current partition are already empty (the previous
	// Partition cleared them and install never reaches them), so only the
	// active ways beyond the new size need invalidating.
	for s := 0; s < c.nsets; s++ {
		ls := c.set(s)
		for w := ways; w < len(ls); w++ {
			l := &ls[w]
			if l.valid {
				invalidated++
				if l.dirty {
					dirty++
				}
				c.stats.Invalidates++
			}
			*l = line{}
		}
	}
	c.partitionWays = ways
	return invalidated, dirty
}

// Contains reports whether the line holding addr is resident (testing aid).
func (c *Cache) Contains(addr uint64) bool {
	lineAddr := addr / LineBytes
	set, tag := c.index(lineAddr)
	for _, l := range c.set(set) {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}
