package mem

import "math/bits"

// pendingTable maps a line address to the completion time of its
// outstanding miss. It is an open-addressed hash table with linear probing,
// owned by one Cache, so the miss path neither hashes through the runtime
// nor allocates once the table has reached its working size.
//
// A slot stores its line address plus one, so a zero key marks it empty and
// the table needs no occupancy bitmap. Deletion shifts the rest of the
// probe run back instead of leaving tombstones, so lookups never scan dead
// slots. The slot array starts empty and doubles whenever an insert would
// take it past three-quarters full.
type pendingTable struct {
	slots []pendingSlot // len is zero or a power of two
	shift uint          // 64 - log2(len(slots)): home takes the top bits of the hash
	n     int           // occupied slots

	// scratch holds the surviving entries while sweep rebuilds the table;
	// it is kept between sweeps so each one reuses the same buffer.
	scratch []pendingSlot
}

type pendingSlot struct {
	key  uint64 // line address + 1; 0 marks an empty slot
	done int64  // completion time of the miss
}

// minPendingSlots is the slot array's size on first insert.
const minPendingSlots = 16

// len reports the number of outstanding entries.
func (t *pendingTable) len() int { return t.n }

// home returns the slot a key hashes to (Fibonacci hashing: the top bits of
// the key times 2^64/φ spread sequential line addresses across the table).
func (t *pendingTable) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> t.shift)
}

// find returns the slot holding key (a line address plus one), or the empty
// slot ending its probe run and false. The table must have at least one
// slot.
func (t *pendingTable) find(key uint64) (int, bool) {
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// get returns the completion time recorded for line, if any.
func (t *pendingTable) get(line uint64) (int64, bool) {
	if t.n == 0 {
		return 0, false
	}
	i, ok := t.find(line + 1)
	return t.slots[i].done, ok
}

// put records done as line's completion time, replacing any earlier entry.
func (t *pendingTable) put(line uint64, done int64) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	i, ok := t.find(line + 1)
	if !ok {
		t.slots[i].key = line + 1
		t.n++
	}
	t.slots[i].done = done
}

// del removes line's entry if present, shifting later members of its probe
// run back so every remaining key stays reachable from its home slot.
func (t *pendingTable) del(line uint64) {
	if t.n == 0 {
		return
	}
	i, ok := t.find(line + 1)
	if !ok {
		return
	}
	t.n--
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i only if i lies on its probe
		// path, i.e. its home is no further along than i.
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = pendingSlot{}
}

// sweep drops every entry whose miss completed by cycle (done <= cycle): the
// survivors are copied out to the scratch buffer, the slots cleared, and
// the survivors reinserted.
func (t *pendingTable) sweep(cycle int64) {
	t.scratch = t.scratch[:0]
	for _, s := range t.slots {
		if s.key != 0 && s.done > cycle {
			//evelint:allow hotalloc -- amortized: the buffer is kept across sweeps and only grows past its largest survivor set
			t.scratch = append(t.scratch, s)
		}
	}
	clear(t.slots)
	t.n = 0
	for _, s := range t.scratch {
		i, _ := t.find(s.key)
		t.slots[i] = s
		t.n++
	}
}

// grow doubles the slot array (or creates it) and rehashes every entry.
func (t *pendingTable) grow() {
	old := t.slots
	size := max(2*len(old), minPendingSlots)
	//evelint:allow hotalloc -- amortized: the table doubles, so a cache allocates O(log n) times over a run and never after reaching its working size
	t.slots = make([]pendingSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.key != 0 {
			i, _ := t.find(s.key)
			t.slots[i] = s
		}
	}
}
